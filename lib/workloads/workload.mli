(** Common shape of a benchmark workload: a linked IR module (kernels
    hardened, driver unhardened), host-side input preparation, and one
    entry point [main(nthreads)]. *)

type size = Tiny | Small | Medium | Large

val size_to_string : size -> string

type t = {
  name : string;
  description : string;
  build : size -> Ir.Instr.modul;
  init : size -> Cpu.Machine.t -> unit;
  fi_ok : bool;  (** part of the fault-injection campaign (Fig. 13) *)
}

val make :
  ?fi_ok:bool ->
  name:string ->
  description:string ->
  build:(size -> Ir.Instr.modul) ->
  ?init:(size -> Cpu.Machine.t -> unit) ->
  unit ->
  t

(** Builds, prepares under the chosen flavour, loads inputs and executes. *)
val execute :
  ?machine_cfg:Cpu.Machine.config ->
  t ->
  build:Elzar.build ->
  nthreads:int ->
  size:size ->
  Cpu.Machine.result

(** {!execute}, also returning which execution paths the run took. *)
val execute_paths :
  ?machine_cfg:Cpu.Machine.config ->
  t ->
  build:Elzar.build ->
  nthreads:int ->
  size:size ->
  Cpu.Machine.result * Cpu.Machine.exec_stats

(** Same, from an already prepared module (prepare once, sweep threads).
    [reexec_retries] re-supplies the re-execution recovery budget of the
    build (the flavour is no longer visible from the prepared module);
    use [Elzar.reexec_retries]. *)
val execute_prepared :
  ?machine_cfg:Cpu.Machine.config ->
  ?reexec_retries:int ->
  t ->
  prepared:Ir.Instr.modul ->
  flags_cmp:bool ->
  nthreads:int ->
  size:size ->
  Cpu.Machine.result

(** Fault-injection spec (paper defaults: smallest inputs, 2 threads). *)
val fi_spec :
  t -> build:Elzar.build -> ?nthreads:int -> ?size:size -> unit -> Fault.run_spec
