(* The sim-suite workload: plain runs (no injection, census or trace) of
   four kernels under three builds, on the default machine configuration.
   It exercises the Machine dispatch and block fusion, the Haswell timing
   plan, the L1 and branch-predictor models, memory and lane values, and
   bypasses Fault, Campaign, Supervisor and snapshot restore. *)

module W = Workloads.Workload

let kernels = [ "linreg"; "hist"; "mmul"; "black" ]
let builds = [ Elzar.Native; Elzar.Hardened Elzar.Harden_config.default; Elzar.Swiftr ]
let nthreads = 2

type cell = {
  key : string;  (** fingerprint key: kernel/build/size *)
  w : W.t;
  build : Elzar.build;
  prepared : Ir.Instr.modul;
}

(* Machine config of a cell: the program's defaults (engine included),
   plus the build's re-execution budget, as [Workload.execute] does. *)
let machine_cfg ?(engine = Cpu.Machine.default_config.Cpu.Machine.engine) build =
  {
    Cpu.Machine.default_config with
    Cpu.Machine.engine;
    reexec_retries = Elzar.reexec_retries build;
  }

(* Builds each kernel once and prepares it under every build. *)
let setup ?tr ?(kernels = kernels) (size : W.size) : cell list =
  List.concat_map
    (fun name ->
      let w = Workloads.Registry.find name in
      let m = Trace.span tr "workload.build" (fun () -> w.W.build size) in
      List.map
        (fun build ->
          let prepared = Trace.span tr "core.prepare" (fun () -> Elzar.prepare build m) in
          let key =
            String.concat "/" [ name; Elzar.build_name build; W.size_to_string size ]
          in
          { key; w; build; prepared })
        builds)
    kernels

(* [Machine.create] plus host-side input initialisation. *)
let machine ?tr ?engine (size : W.size) (c : cell) : Cpu.Machine.t =
  let m =
    Trace.span tr "cpu.create" (fun () ->
        Cpu.Machine.create ~cfg:(machine_cfg ?engine c.build)
          ~flags_cmp:(Elzar.uses_flags_cmp c.build) c.prepared)
  in
  Trace.span tr "cpu.init" (fun () -> c.w.W.init size m);
  m

let run ?tr (m : Cpu.Machine.t) : Cpu.Machine.result =
  Trace.span tr "cpu.run" (fun () ->
      Cpu.Machine.run ~args:[| Int64.of_int nthreads |] m "main")

(* Reference fingerprint of a cell, from the reference engine. *)
let reference_fp (size : W.size) (c : cell) : string =
  Fp.of_run (run (machine ~engine:Cpu.Machine.Reference size c))

(* One timed plain run of a cell. *)
type sample = {
  cell : cell;
  result : Cpu.Machine.result;
  seconds : float;  (** host time of [Machine.run] *)
  minor_words : float;  (** words allocated on the minor heap during the run *)
}

(* One pass: every cell once, in order.  Only [Machine.run] is timed;
   machines are created (untimed) right before their run. *)
let pass ?tr (size : W.size) (cells : cell list) : sample list =
  List.map
    (fun cell ->
      Trace.span tr "bench.cell" (fun () ->
          let m = machine ?tr size cell in
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          let result = run ?tr m in
          let seconds = Unix.gettimeofday () -. t0 in
          { cell; result; seconds; minor_words = Gc.minor_words () -. w0 }))
    cells
