(* The benchmark proper: one named workload per call, closed loop on one
   host process, measured for a fixed host-time budget.  An untraced run
   yields the end-to-end metrics; a traced run (separate, same inputs and
   seed) yields the per-layer metrics, each layer's self time and the
   tracing overhead. *)

module W = Workloads.Workload
module J = Obs.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;  (** host-time budget of the measured loop *)
  trace : bool;
  smoke : bool;  (** tiny inputs, few injections: for the benchmark's own tests *)
}

let workloads = [ "sim-suite"; "campaign-reg"; "campaign-mixed-j2" ]

type result = {
  correct : bool;  (** every fingerprint matched the reference engine's *)
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  layers : (string * float) list;  (** the full per-layer table (traced runs) *)
  spans : Trace.span list;  (** traced runs only *)
  inputs : (string * J.t) list;
}

(* ---- statistics ---- *)

let sorted l = List.sort compare l

(* Median by linear interpolation, as Python's [statistics.median]. *)
let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest whole percentile with at least ten samples beyond it, its
   value, and the sample count; [None] below eleven samples. *)
let tail (l : float list) : (int * float * int) option =
  let n = List.length l in
  if n < 11 then None
  else
    let a = Array.of_list (sorted l) in
    let pct = 100 * (n - 10) / n in
    (* the smallest sample at or above the [pct]-th percentile *)
    let i = max 0 (((pct * n) + 99) / 100 - 1) in
    Some (pct, a.(i), n)

let sum = List.fold_left ( +. ) 0.0
let floats l = J.List (List.map (fun x -> J.Float x) l)
let sumi = List.fold_left ( + ) 0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* High-water resident set of this process, in MiB. *)
let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        List.find_map
          (fun l ->
            if String.starts_with ~prefix:"VmHWM:" l then
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
            else None)
          (In_channel.input_lines ic))
  with
  | Some v -> v
  | None | (exception Sys_error _) -> nan

(* The measured loop.  Set-up runs once; then [unit] runs on its product,
   at least once and until [opts.seconds] have elapsed.  After every unit,
   set-up is repeated for at least a tenth of a second, so that its median
   is taken over the same stretch of host time as the units and work moved
   into set-up shows above run-to-run noise.  Returns the set-up product,
   every set-up time, the peak RSS after set-up plus the first unit (what one user invocation
   holds; later units would only give the garbage collector more chances
   to peak), and the units' results. *)
let measure opts ~(setup : unit -> 'a) ~(unit : 'a -> 'b) : 'a * float list * float * 'b list
    =
  let t0 = Unix.gettimeofday () in
  let x, t = timed setup in
  let setup_times = ref [ t ] in
  let resetup () =
    let t1 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t1 < 0.1 do
      setup_times := snd (timed setup) :: !setup_times
    done
  in
  let first = unit x in
  let rss = peak_rss_mb () in
  let rec go acc =
    if opts.smoke then acc
    else begin
      resetup ();
      if Unix.gettimeofday () -. t0 >= opts.seconds then acc else go (unit x :: acc)
    end
  in
  let units = List.rev (go [ first ]) in
  (x, List.rev !setup_times, rss, units)

(* Failure accounting shared by every workload. *)
type tally = { mutable attempted : int; mutable failed : int; mutable mismatches : int }

let tally () = { attempted = 0; failed = 0; mismatches = 0 }

(* ---- sim-suite ---- *)

let sim_size opts = if opts.smoke then W.Tiny else W.Medium

(* Counts a pass's runs: a trapped run or a fingerprint mismatch fails. *)
let check_pass (t : tally) expected (samples : Sim.sample list) =
  List.iter2
    (fun exp (s : Sim.sample) ->
      t.attempted <- t.attempted + 1;
      let mismatch = Fp.of_run s.Sim.result <> exp in
      if mismatch then t.mismatches <- t.mismatches + 1;
      if mismatch || s.Sim.result.Cpu.Machine.trap <> None then t.failed <- t.failed + 1)
    expected samples

let instrs (r : Cpu.Machine.result) = r.Cpu.Machine.totals.Cpu.Counters.instrs

(* Per-build host ns and minor-heap words per simulated instruction, and
   the simulated counter totals, over one pass. *)
let cpu_layer (samples : Sim.sample list) : (string * float) list =
  let per_build =
    List.concat_map
      (fun b ->
        let name = Elzar.build_name b in
        let mine = List.filter (fun (s : Sim.sample) -> s.Sim.cell.Sim.build = b) samples in
        let ins = float_of_int (sumi (List.map (fun s -> instrs s.Sim.result) mine)) in
        [
          ( "cpu.ns_per_instr." ^ name,
            1e9 *. ratio (sum (List.map (fun s -> s.Sim.seconds) mine)) ins );
          ( "cpu.alloc_words_per_instr." ^ name,
            ratio (sum (List.map (fun s -> s.Sim.minor_words) mine)) ins );
        ])
      Sim.builds
  in
  let total f =
    float_of_int (sumi (List.map (fun (s : Sim.sample) -> f s.Sim.result) samples))
  in
  let ctr f = total (fun r -> f r.Cpu.Machine.totals) in
  per_build
  @ [
      ("cpu.instrs", ctr (fun c -> c.Cpu.Counters.instrs));
      ("cpu.uops", ctr (fun c -> c.Cpu.Counters.uops));
      ("cpu.l1_misses", ctr (fun c -> c.Cpu.Counters.l1_misses));
      ("cpu.branch_misses", ctr (fun c -> c.Cpu.Counters.branch_misses));
      ("cpu.cycles", total (fun r -> r.Cpu.Machine.wall_cycles));
    ]

(* Host time of [Machine.create] + init and of [Machine.run] in one run. *)
let cpu_times spans =
  [
    ("cpu.create_s", Trace.total spans "cpu.create" +. Trace.total spans "cpu.init");
    ("cpu.run_s", Trace.total spans "cpu.run");
  ]

let sim_reference refs size cells =
  List.map (fun c -> Fp.reference refs c.Sim.key (fun () -> Sim.reference_fp size c)) cells

let sim_suite opts refs : result =
  let size = sim_size opts in
  let t = tally () in
  let reference = sim_reference refs size in
  let inputs =
    [
      ("kernels", J.List (List.map (fun k -> J.Str k) Sim.kernels));
      ("builds", J.List (List.map (fun b -> J.Str (Elzar.build_name b)) Sim.builds));
      ("size", J.Str (W.size_to_string size));
      ("threads", J.Int Sim.nthreads);
    ]
  in
  if not opts.trace then begin
    let cells, setup_times, peak_rss_mb, passes =
      measure opts
        ~setup:(fun () ->
          let cells = Sim.setup size in
          List.iter (fun c -> ignore (Sim.machine size c)) cells;
          cells)
        ~unit:(Sim.pass size)
    in
    List.iter (check_pass t (reference cells)) passes;
    (* per cell, the median over passes of its run time *)
    let cell_s =
      List.mapi
        (fun i _ -> median (List.map (fun p -> (List.nth p i).Sim.seconds) passes))
        cells
    in
    let pass_instrs =
      float_of_int (sumi (List.map (fun s -> instrs s.Sim.result) (List.hd passes)))
    in
    let pass_s = sum cell_s in
    let mips seconds = pass_instrs /. seconds /. 1e6 in
    {
      correct = t.mismatches = 0;
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        [
          ("sim_mips", mips pass_s, "Minstr/s");
          ("exp_per_s", float_of_int (List.length cells) /. pass_s, "1/s");
          ("setup_s", median setup_times, "s");
          ("peak_rss_mb", peak_rss_mb, "MB");
        ];
      layers = [];
      spans = [];
      inputs =
        ( "pass_mips",
          floats (List.map (fun p -> mips (sum (List.map (fun x -> x.Sim.seconds) p))) passes) )
        :: ("setup_s_samples", floats setup_times)
        :: inputs;
    }
  end
  else begin
    let tr = Trace.create () in
    let cells = Sim.setup ~tr size in
    let expected = reference cells in
    let untraced, wall_u = timed (fun () -> Sim.pass size cells) in
    Trace.set_run tr 1;
    let traced, wall_t = timed (fun () -> Sim.pass ~tr size cells) in
    List.iter (check_pass t expected) [ untraced; traced ];
    let layers =
      [ ("core.prepare_s", Trace.total (Trace.of_run tr 0) "core.prepare") ]
      @ cpu_times (Trace.of_run tr 1)
      @ cpu_layer traced
      @ [
          ("trace.overhead_frac", (wall_t /. wall_u) -. 1.0);
          ("trace.coverage", Trace.coverage tr.Trace.spans ~run:1 ~wall:wall_t);
        ]
    in
    {
      correct = t.mismatches = 0;
      attempted = t.attempted;
      failed = t.failed;
      metrics = [];
      layers;
      spans = tr.Trace.spans;
      inputs;
    }
  end

(* ---- campaigns ---- *)

let campaign_n opts (c : Camp.t) = if opts.smoke then 12 else c.Camp.n

(* Counts one campaign call: its experiments are attempted; quarantines,
   worker deaths and (for all of its experiments) a results mismatch
   fail. *)
let check_campaign (t : tally) expected (r : Campaign.report) =
  let runs = r.Campaign.experiments_run in
  t.attempted <- t.attempted + runs;
  if Fp.of_campaign r <> expected then begin
    t.mismatches <- t.mismatches + 1;
    t.failed <- t.failed + runs
  end
  else
    t.failed <-
      t.failed + List.length r.Campaign.quarantined + r.Campaign.worker_deaths

(* The stepwise replay must schedule exactly what the campaign did, or the
   instruction counts and per-experiment times taken from it are not the
   campaign's. *)
let check_replay (t : tally) (d : Camp.replayed) (r : Campaign.report) =
  if d.Camp.stats <> r.Campaign.stats
     || List.length d.Camp.runs <> r.Campaign.experiments_run
  then begin
    prerr_endline "perfbench: the stepwise campaign replay diverged from the campaign";
    t.mismatches <- t.mismatches + 1
  end

let exec_span (r : Campaign.report) path = Camp.span_wall r.Campaign.spans path

let campaign_reference refs (c : Camp.t) ~seed ~n =
  Fp.reference refs (Camp.key c ~seed ~n) (fun () ->
      Fp.of_campaign (Camp.call c ~seed ~n (Camp.spec ~engine:Cpu.Machine.Reference c)))

let campaign opts refs (c : Camp.t) : result =
  let n = campaign_n opts c and seed = opts.seed in
  let t = tally () in
  let expected () = campaign_reference refs c ~seed ~n in
  let inputs =
    [
      ("kernel", J.Str c.Camp.kernel);
      ("build", J.Str (Elzar.build_name c.Camp.build));
      ("fault_model", J.Str (Fault.model_to_string c.Camp.model));
      ("size", J.Str (W.size_to_string Camp.size));
      ("n", J.Int n);
      ("jobs", J.Int c.Camp.jobs);
      ("supervised", J.Bool true);
    ]
  in
  if not opts.trace then begin
    let spec, setup_times, peak_rss_mb, calls =
      measure opts
        ~setup:(fun () -> Camp.spec c)
        ~unit:(fun spec -> timed (fun () -> Camp.call c ~seed ~n spec))
    in
    (* untimed, after the loop like the reference campaign: counts the
       simulated instructions a campaign retires *)
    let d = Camp.replay c ~seed ~n spec in
    let sim_instrs =
      instrs d.Camp.golden + sumi (List.map (fun e -> e.Camp.instrs) d.Camp.runs)
    in
    let expected = expected () in
    List.iter (fun (r, _) -> check_campaign t expected r) calls;
    check_replay t d (fst (List.hd calls));
    let exps r = float_of_int r.Campaign.experiments_run in
    let per_call f = median (List.map (fun (r, wall) -> f r /. wall) calls) in
    {
      correct = t.mismatches = 0;
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        [
          ("sim_mips", per_call (fun _ -> float_of_int sim_instrs /. 1e6), "Minstr/s");
          ("exp_per_s", per_call exps, "1/s");
          ("setup_s", median setup_times, "s");
          ("peak_rss_mb", peak_rss_mb, "MB");
        ];
      layers = [];
      spans = [];
      inputs =
        ( "call_exp_per_s",
          floats (List.map (fun (r, wall) -> exps r /. wall) calls) )
        :: ("setup_s_samples", floats setup_times)
        :: inputs;
    }
  end
  else begin
    let tr = Trace.create () in
    let str = Some tr in
    (* run 0: set-up, timed layer by layer *)
    let w = Workloads.Registry.find c.Camp.kernel in
    let m = Trace.span str "workload.build" (fun () -> w.W.build Camp.size) in
    ignore (Trace.span str "core.prepare" (fun () -> Elzar.prepare c.Camp.build m));
    let spec = Camp.spec c in
    let expected = expected () in
    (* run 1: the cpu layer, on plain runs of the campaign's kernel *)
    Trace.set_run tr 1;
    let probe =
      Sim.pass ~tr Camp.size (Sim.setup ~tr ~kernels:[ c.Camp.kernel ] Camp.size)
    in
    (* run 2: the campaign one call at a time, against an untraced twin *)
    let _, wall_u = timed (fun () -> Camp.replay c ~seed ~n spec) in
    Trace.set_run tr 2;
    let d, wall_t = timed (fun () -> Camp.replay ~tr c ~seed ~n spec) in
    (* runs 3 and 4: Campaign.run on the same plan, unsupervised then
       supervised *)
    let pool ?supervise run =
      Trace.set_run tr run;
      let exps, redraw = Camp.plan c ~seed ~n d.Camp.golden in
      let r =
        Trace.span str "campaign.run" (fun () ->
            Campaign.run ~jobs:c.Camp.jobs ~redraw ~snapshots:d.Camp.snapshots ?supervise
              ~spec ~golden:d.Camp.golden exps)
      in
      Trace.attach str ~parent:"campaign.run" "campaign.exec" (exec_span r "exec");
      Trace.attach str ~parent:"campaign.exec" "cpu.restore" (exec_span r "exec/restore");
      check_campaign t expected r;
      r
    in
    let unsup = pool 3 in
    let sup = pool ~supervise:Supervisor.default 4 in
    (* run 5: the whole user-visible call *)
    Trace.set_run tr 5;
    let name =
      match c.Camp.model with
      | Fault.Reg -> "campaign.single"
      | _ -> "campaign.model_campaign"
    in
    let call = Trace.span str name (fun () -> Camp.call c ~seed ~n spec) in
    Trace.attach str ~parent:name "fault.golden_capture" (exec_span call "golden");
    Trace.attach str ~parent:"fault.golden_capture" "cpu.snapshot"
      (exec_span call "golden/snapshot");
    Trace.attach str ~parent:name "campaign.plan" (exec_span call "plan");
    Trace.attach str ~parent:name "campaign.exec" (exec_span call "exec");
    Trace.attach str ~parent:"campaign.exec" "cpu.restore" (exec_span call "exec/restore");
    check_campaign t expected call;
    check_replay t d call;
    let runs = d.Camp.runs in
    let nruns = float_of_int (List.length runs) in
    let exp_ms = List.map (fun e -> 1e3 *. e.Camp.seconds) runs in
    let exec_s = sum (List.map (fun e -> e.Camp.seconds) runs) in
    let exec_instrs = float_of_int (sumi (List.map (fun e -> e.Camp.instrs) runs)) in
    let stats = d.Camp.stats in
    let tail =
      match tail exp_ms with
      | Some (pct, v, count) ->
          [
            ("fault.exp_ms_tail", v);
            ("fault.exp_ms_tail_pct", float_of_int pct);
            ("fault.exp_samples", float_of_int count);
          ]
      | None -> [ ("fault.exp_samples", nruns) ]
    in
    let pool_speedup =
      if c.Camp.jobs > 1 then [ ("campaign.pool_speedup", exec_s /. exec_span sup "exec") ]
      else []
    in
    let layers =
      [ ("core.prepare_s", Trace.total (Trace.of_run tr 0) "core.prepare") ]
      @ cpu_times (Trace.of_run tr 1)
      @ cpu_layer probe
      @ [
          ("cpu.snapshot_s", d.Camp.snapshot_s);
          ("cpu.restore_s", sum (List.map (fun e -> e.Camp.restore_s) runs));
          ("cpu.restore_ms_p50", median (List.map (fun e -> 1e3 *. e.Camp.restore_s) runs));
          ("fault.golden_s", Trace.total (Trace.of_run tr 2) "fault.golden_capture");
          ("fault.exp_ms_p50", median exp_ms);
        ]
      @ tail
      @ [
          ("fault.exec_instrs_per_exp", exec_instrs /. nruns);
          ("fault.ns_per_exec_instr", 1e9 *. ratio exec_s exec_instrs);
          ( "fault.alloc_words_per_exec_instr",
            ratio (sum (List.map (fun e -> e.Camp.minor_words) runs)) exec_instrs );
          ( "fault.corrected_frac",
            ratio (float_of_int stats.Fault.corrected) (float_of_int stats.Fault.runs) );
        ]
      @ pool_speedup
      @ [
          ("campaign.not_reached_frac", float_of_int d.Camp.not_reached /. nruns);
          ( "supervisor.overhead_frac",
            (exec_span sup "exec" /. exec_span unsup "exec") -. 1.0 );
          ( "supervisor.quarantined",
            float_of_int
              (List.length sup.Campaign.quarantined + List.length call.Campaign.quarantined) );
          ( "campaign.worker_deaths",
            float_of_int (sup.Campaign.worker_deaths + call.Campaign.worker_deaths) );
          ("trace.overhead_frac", (wall_t /. wall_u) -. 1.0);
          ("trace.coverage", Trace.coverage tr.Trace.spans ~run:2 ~wall:wall_t);
        ]
    in
    {
      correct = t.mismatches = 0;
      attempted = t.attempted;
      failed = t.failed;
      metrics = [];
      layers;
      spans = tr.Trace.spans;
      inputs;
    }
  end

(* ---- entry point ---- *)

(* Fills [refs] with the reference-engine fingerprints of every workload's
   full-size inputs at [seed] (the content of fingerprints.txt). *)
let reference_all ~seed refs =
  ignore (sim_reference refs W.Medium (Sim.setup W.Medium));
  List.iter (fun (c : Camp.t) -> ignore (campaign_reference refs c ~seed ~n:c.Camp.n)) Camp.all

(* Per-layer metrics reported on the result line of a traced run: those
   every workload measures (see README.md for the full table). *)
let per_layer =
  [
    ("core.prepare_s", "s");
    ("cpu.create_s", "s");
    ("cpu.run_s", "s");
  ]
  @ List.concat_map
      (fun b ->
        let n = Elzar.build_name b in
        [ ("cpu.ns_per_instr." ^ n, "ns"); ("cpu.alloc_words_per_instr." ^ n, "words") ])
      Sim.builds
  @ [
      ("cpu.instrs", "count");
      ("cpu.uops", "count");
      ("cpu.l1_misses", "count");
      ("cpu.branch_misses", "count");
      ("cpu.cycles", "cycles");
      ("self_s.workload", "s");
      ("self_s.core", "s");
      ("self_s.cpu", "s");
      ("trace.overhead_frac", "frac");
    ]

let run (opts : opts) (refs : Fp.table) : result =
  let r =
    match opts.workload with
    | "sim-suite" -> sim_suite opts refs
    | "campaign-reg" -> campaign opts refs Camp.reg
    | "campaign-mixed-j2" -> campaign opts refs Camp.mixed_j2
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  if not opts.trace then r
  else
    let self = List.map (fun (l, s) -> ("self_s." ^ l, s)) (Trace.layer_self r.spans) in
    let layers = r.layers @ self in
    let metrics =
      List.map (fun (name, unit_) -> (name, List.assoc name layers, unit_)) per_layer
    in
    { r with layers; metrics }

(* ---- the result document ---- *)

let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with Some h -> h | None -> r)
  | Some h -> h
  | None -> "unknown"

let meta (opts : opts) (r : result) : J.t =
  J.Obj
    [
      ("git_rev", J.Str (git_rev ()));
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ( "engine",
        J.Str (Cpu.Machine.engine_to_string Cpu.Machine.default_config.Cpu.Machine.engine) );
      ("workload", J.Str opts.workload);
      ("seed", J.Int opts.seed);
      ("seconds", J.Float opts.seconds);
      ("trace", J.Bool opts.trace);
      ("inputs", J.Obj r.inputs);
    ]

let metric_json l =
  J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ])) l)

let layers_json (r : result) = J.Obj (List.map (fun (n, v) -> (n, J.Float v)) r.layers)

(* The summary line printed before the result line: run metadata, the
   failure fraction, and for traced runs the full per-layer table. *)
let details (opts : opts) (r : result) : J.t =
  J.Obj
    ([
       ("meta", meta opts r);
       ("failed_frac", J.Float (ratio (float_of_int r.failed) (float_of_int r.attempted)));
     ]
    @ if r.layers = [] then [] else [ ("layers", layers_json r) ])

(* The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let result_line (r : result) : J.t =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metric_json r.metrics);
    ]

(* The trace document: metadata, per-layer table and every span. *)
let trace_doc (opts : opts) (r : result) : J.t =
  J.Obj
    [
      ("meta", meta opts r);
      ("layers", layers_json r);
      ("spans", Trace.to_json r.spans);
    ]
