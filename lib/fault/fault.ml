(** Fault-injection framework (paper §IV-B).

    Reproduces the paper's Intel SDE + gdb campaign: each experiment runs
    the program once with a single bit flipped in the destination register
    of one randomly chosen dynamic instruction inside hardened code — GPR
    destinations flip their value, YMM destinations flip one bit of one
    lane, matching the SEU model of §III-A.  The outcome is classified
    against a golden run (Table I).

    This module holds the per-experiment machinery (specs, single
    injections, classification, outcome statistics); {!Campaign} drives
    whole campaigns over it, in parallel across domains. *)

type outcome =
  | Hang  (** program became unresponsive (instruction budget exhausted) *)
  | Deadlock  (** all threads blocked on each other — counted separately,
                  folded into the crashed bucket for Table I *)
  | Os_detected  (** trap: segfault, division by zero, abort, fail-stop *)
  | Elzar_corrected  (** a recovery routine ran and the output is correct *)
  | Masked  (** fault did not affect the output *)
  | Sdc  (** silent data corruption in the output *)
  | Not_reached
      (** the injection site was never executed: no fault was actually
          injected, so the run says nothing about resilience.  Campaigns
          discard these and redraw, as the paper's campaign does. *)

let outcome_to_string = function
  | Hang -> "hang"
  | Deadlock -> "deadlock"
  | Os_detected -> "os-detected"
  | Elzar_corrected -> "elzar-corrected"
  | Masked -> "masked"
  | Sdc -> "SDC"
  | Not_reached -> "not-reached"

(** Fault-model axis of a campaign.  The first four select one
    {!Cpu.Machine.fault_kind}; [Mixed] draws a kind per experiment
    (uniformly among the kinds with at least one site in the golden
    run). *)
type model = Reg | Mem | Addr | Cf | Mixed

let model_to_string = function
  | Reg -> "reg"
  | Mem -> "mem"
  | Addr -> "addr"
  | Cf -> "cf"
  | Mixed -> "mixed"

let all_models = [ Reg; Mem; Addr; Cf; Mixed ]

(* Everything needed to run one experiment deterministically. *)
type run_spec = {
  modul : Ir.Instr.modul;  (** already prepared (hardened or native) *)
  flags_cmp : bool;
  entry : string;
  args : int64 array;
  init : Cpu.Machine.t -> unit;  (** host-side input preparation *)
  max_instrs : int;
  reexec_retries : int;  (** re-execution recovery budget of the build *)
  engine : Cpu.Machine.engine_kind;  (** execution engine for every run *)
}

let make_spec ?(flags_cmp = false) ?(args = [||]) ?(init = fun _ -> ())
    ?(max_instrs = 200_000_000) ?(reexec_retries = 0)
    ?(engine = Cpu.Machine.Closure) modul entry =
  { modul; flags_cmp; entry; args; init; max_instrs; reexec_retries; engine }

(* One pre-drawn experiment: flip [bit] of one lane of the destination of
   the [at]-th injection-eligible instruction, plus an optional second
   (lane, bit) flip for multi-bit SEUs.  The second lane is resolved
   against the destination's actual lane count by
   {!Cpu.Machine.second_flip}, which guarantees it never aliases (and
   hence cancels) the first flip after the [mod dlanes] wrap. *)
type experiment = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;
  kind : Cpu.Machine.fault_kind;
}

let run_with (spec : run_spec) (cfg : Cpu.Machine.config) : Cpu.Machine.result =
  let machine = Cpu.Machine.create ~cfg ~flags_cmp:spec.flags_cmp spec.modul in
  spec.init machine;
  Cpu.Machine.run ~args:spec.args machine spec.entry

(* Fault-free reference run; also counts the injection-eligible dynamic
   instructions (the "instruction trace" step of §IV-B) and the
   memory-access / conditional-branch site streams of the other fault
   kinds. *)
let golden_cfg (spec : run_spec) : Cpu.Machine.config =
  {
    Cpu.Machine.default_config with
    max_instrs = spec.max_instrs;
    count_inject_sites = true;
    reexec_retries = spec.reexec_retries;
    engine = spec.engine;
  }

let check_golden (spec : run_spec) (r : Cpu.Machine.result) : Cpu.Machine.result =
  (match r.Cpu.Machine.trap with
  | Some t ->
      invalid_arg
        (Printf.sprintf "Fault.golden: reference run of %s trapped (%s)" spec.entry
           (Cpu.Machine.string_of_trap t))
  | None -> ());
  r

let golden (spec : run_spec) : Cpu.Machine.result =
  check_golden spec (run_with spec (golden_cfg spec))

(* Snapshots kept per golden run.  More snapshots cut more of each
   injection run's replayed prefix but cost capture time and memory; with
   geometric thinning the count stays in (max/2, max]. *)
let max_snapshots = 24

(* Dynamic instructions between captures, until thinning widens it. *)
let initial_snapshot_spacing = 12_500

(* Golden run that additionally captures machine snapshots at quantum
   boundaries, spaced by dynamic instruction count.  When the count would
   exceed [max_snapshots], every other snapshot is dropped and the spacing
   doubles — sound because captures are cumulative deltas against the base
   image (each one is self-contained), and cheap because dropped deltas
   are just garbage-collected.  The returned array is oldest-first. *)
let golden_capture ?spans (spec : run_spec) :
    Cpu.Machine.result * Cpu.Machine.snapshot array =
  let machine = Cpu.Machine.create ~cfg:(golden_cfg spec) ~flags_cmp:spec.flags_cmp spec.modul in
  spec.init machine;
  (* oldest-first throughout *)
  let snaps = ref [] in
  let nsnaps = ref 0 in
  let spacing = ref initial_snapshot_spacing in
  let capture (m : Cpu.Machine.t) : Cpu.Machine.snapshot =
    match spans with
    | None -> Cpu.Machine.snapshot m
    | Some r -> Obs.Span.time r "golden/snapshot" (fun () -> Cpu.Machine.snapshot m)
  in
  (* first capture at the very first quantum boundary: experiments whose
     site falls before any later snapshot then still restore a pooled
     memory instead of paying a from-scratch machine build *)
  let next_at = ref 1 in
  let on_quantum (m : Cpu.Machine.t) =
    if m.Cpu.Machine.total_instrs >= !next_at then begin
      snaps := !snaps @ [ capture m ];
      incr nsnaps;
      if !nsnaps > max_snapshots then begin
        (* keep even indices: the earliest snapshot must survive, it is
           what spares early-site experiments a from-scratch machine *)
        let keep = ref [] and i = ref 0 in
        List.iter
          (fun s ->
            if !i land 1 = 0 then keep := s :: !keep;
            incr i)
          !snaps;
        snaps := List.rev !keep;
        nsnaps := List.length !snaps;
        spacing := 2 * !spacing
      end;
      next_at := m.Cpu.Machine.total_instrs + !spacing
    end
  in
  let r =
    check_golden spec (Cpu.Machine.run ~args:spec.args ~on_quantum machine spec.entry)
  in
  (r, Array.of_list !snaps)

(* Hang budget for injection runs, derived from the golden run: a faulty
   run that retires 20x the golden dynamic instruction count is not going
   to terminate.  The floor keeps tiny workloads from being starved; the
   spec's own budget stays an upper bound. *)
let hang_budget ~(golden : Cpu.Machine.result) (spec : run_spec) : int =
  min spec.max_instrs
    (max 1_000_000 (20 * golden.Cpu.Machine.totals.Cpu.Counters.instrs))

let classify ~(golden : Cpu.Machine.result) (r : Cpu.Machine.result) : outcome =
  match r.Cpu.Machine.trap with
  | Some Cpu.Machine.Hang -> Hang
  | Some Cpu.Machine.Deadlock -> Deadlock
  | Some _ -> Os_detected
  | None ->
      if not r.Cpu.Machine.fault_injected then Not_reached
      else if r.Cpu.Machine.output_digest = golden.Cpu.Machine.output_digest then
        if r.Cpu.Machine.recovered_faults > 0 then Elzar_corrected else Masked
      else Sdc

(* Runs one pre-drawn experiment and returns the raw machine result, so
   callers can account simulated cycles as well as the outcome.
   [max_instrs] overrides the spec's budget (campaigns pass the golden-run
   derived {!hang_budget}); [abort] and [chaos] are the supervision hooks
   of {!Cpu.Machine.config}, compiled into the run's config unchanged. *)
let experiment_cfg ?max_instrs ?abort ?chaos (spec : run_spec) (e : experiment) :
    Cpu.Machine.config =
  {
    Cpu.Machine.default_config with
    max_instrs = (match max_instrs with Some b -> b | None -> spec.max_instrs);
    inject =
      Some
        {
          Cpu.Machine.at = e.at;
          lane = e.lane;
          bit = e.bit;
          second = e.second;
          kind = e.kind;
        };
    reexec_retries = spec.reexec_retries;
    engine = spec.engine;
    abort;
    chaos;
  }

let run_experiment ?max_instrs ?abort ?chaos (spec : run_spec) (e : experiment) :
    Cpu.Machine.result =
  run_with spec (experiment_cfg ?max_instrs ?abort ?chaos spec e)

(* The site stream an experiment's [at] is drawn against. *)
let site_stream (kind : Cpu.Machine.fault_kind) (sn : Cpu.Machine.snapshot) : int =
  let inj, mem, br = Cpu.Machine.snapshot_sites sn in
  match kind with
  | Cpu.Machine.Reg_flip -> inj
  | Cpu.Machine.Mem_flip | Cpu.Machine.Addr_flip -> mem
  | Cpu.Machine.Branch_flip -> br

(* Latest snapshot strictly before the experiment's injection site: the
   [at]-th site fires when the kind's counter reaches [at], so any
   snapshot whose counter is still below [at] precedes the injection.
   [snapshots] is oldest-first; returns [None] when the site lies before
   the first capture. *)
let pick_snapshot (snapshots : Cpu.Machine.snapshot array) (e : experiment) :
    Cpu.Machine.snapshot option =
  let best = ref None in
  Array.iter
    (fun sn -> if site_stream e.kind sn < e.at then best := Some sn)
    snapshots;
  !best

(* [run_experiment], fast-forwarded: instead of re-executing the whole
   fault-free prefix, restore the latest golden snapshot preceding the
   injection site and resume under the injecting config.  Snapshots carry
   their site counters, so the pre-drawn plan stays valid and the outcome
   is bit-identical to a from-scratch run (the prefix is deterministic). *)
let run_experiment_from ?max_instrs ?spans ?abort ?chaos
    ~(snapshots : Cpu.Machine.snapshot array) (spec : run_spec) (e : experiment) :
    Cpu.Machine.result =
  let cfg = experiment_cfg ?max_instrs ?abort ?chaos spec e in
  match pick_snapshot snapshots e with
  | None -> run_with spec cfg
  | Some sn ->
      (* ~reuse is sound here: each worker runs one experiment at a time
         and drops the machine before the next restore *)
      let m =
        match spans with
        | None -> Cpu.Machine.restore ~cfg ~reuse:true sn
        | Some r ->
            Obs.Span.time r "exec/restore" (fun () ->
                Cpu.Machine.restore ~cfg ~reuse:true sn)
      in
      Cpu.Machine.resume m

(* One experiment: flip [bit] of one lane of the destination of the [at]-th
   injection-eligible instruction. *)
let inject_one (spec : run_spec) ~(golden : Cpu.Machine.result) ~(at : int) ~(lane : int)
    ~(bit : int) : outcome =
  classify ~golden
    (run_experiment spec { at; lane; bit; second = None; kind = Cpu.Machine.Reg_flip })

(* Multi-bit experiment: two flips in the same destination register
   (paper §III-C's extended-recovery discussion). *)
let inject_two (spec : run_spec) ~(golden : Cpu.Machine.result) ~(at : int) ~(lane : int)
    ~(bit : int) ~(lane2 : int) ~(bit2 : int) : outcome =
  classify ~golden
    (run_experiment spec
       { at; lane; bit; second = Some (lane2, bit2); kind = Cpu.Machine.Reg_flip })

type stats = {
  runs : int;
  hang : int;
  deadlock : int;
  os_detected : int;
  corrected : int;
  masked : int;
  sdc : int;
}

let empty_stats =
  { runs = 0; hang = 0; deadlock = 0; os_detected = 0; corrected = 0; masked = 0; sdc = 0 }

let add_outcome (s : stats) = function
  | Hang -> { s with runs = s.runs + 1; hang = s.hang + 1 }
  | Deadlock -> { s with runs = s.runs + 1; deadlock = s.deadlock + 1 }
  | Os_detected -> { s with runs = s.runs + 1; os_detected = s.os_detected + 1 }
  | Elzar_corrected -> { s with runs = s.runs + 1; corrected = s.corrected + 1 }
  | Masked -> { s with runs = s.runs + 1; masked = s.masked + 1 }
  | Sdc -> { s with runs = s.runs + 1; sdc = s.sdc + 1 }
  | Not_reached -> s (* no fault injected: the run carries no information *)

let pct part s = 100.0 *. float_of_int part /. float_of_int (max 1 s.runs)

(* Aggregates into the paper's three Fig. 13 bars (deadlocks are crashes
   in Table I terms, but tallied separately above). *)
let crashed_pct s = pct (s.hang + s.deadlock + s.os_detected) s
let correct_pct s = pct (s.corrected + s.masked) s
let sdc_pct s = pct s.sdc s

let pp_stats fmt (s : stats) =
  Format.fprintf fmt "runs=%d crashed=%.1f%% correct=%.1f%% (corrected=%.1f%%) SDC=%.1f%%"
    s.runs (crashed_pct s) (correct_pct s) (pct s.corrected s) (sdc_pct s);
  if s.deadlock > 0 then Format.fprintf fmt " [deadlock=%d]" s.deadlock

(* Per-run observation: everything a campaign keeps from a machine result.
   Keeping these (rather than bare outcomes) lets campaigns report
   detection latency and the per-instruction-class AVF table without
   rerunning anything. *)
type obs = {
  o_outcome : outcome;
  o_cycles : int;  (** wall cycles of the faulty run *)
  o_class : string option;  (** instruction class at the injection site *)
  o_latency : int option;  (** detection latency in dynamic instructions *)
}

let observe ~(golden : Cpu.Machine.result) (r : Cpu.Machine.result) : obs =
  {
    o_outcome = classify ~golden r;
    o_cycles = r.Cpu.Machine.wall_cycles;
    o_class = r.Cpu.Machine.inject_class;
    o_latency = r.Cpu.Machine.detect_latency;
  }

let mean_latency (obs : obs array) : float option =
  let n = ref 0 and sum = ref 0 in
  Array.iter
    (fun o -> match o.o_latency with Some l -> incr n; sum := !sum + l | None -> ())
    obs;
  if !n = 0 then None else Some (float_of_int !sum /. float_of_int !n)

(* AVF-style table: for each instruction class at the injection site, the
   fraction of injections that ended in SDC (the architectural
   vulnerability of that class) and in crashes.  Rows are sorted by
   descending SDC rate, ties by run count. *)
let avf_table (obs : obs array) : (string * stats) list =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun o ->
      match o.o_class with
      | None -> ()
      | Some cls ->
          let s = try Hashtbl.find tbl cls with Not_found -> empty_stats in
          Hashtbl.replace tbl cls (add_outcome s o.o_outcome))
    obs;
  Hashtbl.fold (fun cls s acc -> (cls, s) :: acc) tbl []
  |> List.sort (fun (ca, sa) (cb, sb) ->
         match compare (sdc_pct sb) (sdc_pct sa) with
         | 0 -> ( match compare sb.runs sa.runs with 0 -> compare ca cb | c -> c)
         | c -> c)

let pp_avf fmt (rows : (string * stats) list) =
  Format.fprintf fmt "%-8s %6s %9s %9s %9s@." "class" "runs" "SDC%" "crashed%" "corr%";
  List.iter
    (fun (cls, s) ->
      Format.fprintf fmt "%-8s %6d %8.1f%% %8.1f%% %8.1f%%@." cls s.runs (sdc_pct s)
        (crashed_pct s) (correct_pct s))
    rows
