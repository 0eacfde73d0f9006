(** Campaign wall-time: the Fig. 13 injection campaign, under each
    single-kind fault model (register, memory, address, control flow), in
    the old configuration (reference interpreter, every run replays the
    whole program) vs the optimized one (compiled engine + snapshot
    fast-forward), at the same worker count and seed.  The two reports
    must be bit-identical — the speedup is pure execution engineering,
    not a change of experiment — and the bench fails loudly if they are
    not.

    With [--json], emits BENCH_campaign.json recording the wall times,
    the speedup and the optimized campaign's fused fraction per benchmark
    and model, plus the geometric-mean speedup. *)

let benchmarks = [ "hist"; "linreg" ]
let models = [ Fault.Reg; Fault.Mem; Fault.Addr; Fault.Cf ]

type row = {
  r_bench : string;
  r_model : Fault.model;
  r_baseline_s : float;
  r_optimized_s : float;
  r_speedup : float;
  r_runs : int;
  r_report : Campaign.report;  (** the optimized campaign, for the JSON results block *)
}

let campaign (w : Workloads.Workload.t) ~(model : Fault.model)
    ~(engine : Cpu.Machine.engine_kind) ~(fast_forward : bool) : Campaign.report =
  let spec =
    { (Workloads.Workload.fi_spec w ~build:(Elzar.Hardened Elzar.Harden_config.default) ())
      with Fault.engine = engine }
  in
  Campaign.model_campaign ~n:!Common.fi_injections
    ~jobs:(Common.fi_effective_jobs ())
    ~fast_forward ~model spec

let measure (name : string) (model : Fault.model) : row =
  let w = Workloads.Registry.find name in
  let base = campaign w ~model ~engine:Cpu.Machine.Reference ~fast_forward:false in
  let opt = campaign w ~model ~engine:Cpu.Machine.Compiled ~fast_forward:true in
  if not (base.Campaign.stats = opt.Campaign.stats
          && base.Campaign.outcomes = opt.Campaign.outcomes) then
    failwith
      (Printf.sprintf
         "bench campaign: %s/%s: optimized campaign is NOT bit-identical to baseline" name
         (Fault.model_to_string model));
  {
    r_bench = name;
    r_model = model;
    r_baseline_s = base.Campaign.wall_seconds;
    r_optimized_s = opt.Campaign.wall_seconds;
    r_speedup = base.Campaign.wall_seconds /. opt.Campaign.wall_seconds;
    r_runs = opt.Campaign.experiments_run;
    r_report = opt;
  }

(* Schema "elzar.bench.campaign".  Each row carries the optimized
   campaign's deterministic results block, so CI diffs catch outcome
   drift as well as wall-time regressions. *)
let emit_json path (rows : row list) (g : float) =
  let row_json r =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str r.r_bench);
        ("fault_model", Obs.Json.Str (Fault.model_to_string r.r_model));
        ("runs", Obs.Json.Int r.r_runs);
        ("baseline_seconds", Obs.Json.Float r.r_baseline_s);
        ("optimized_seconds", Obs.Json.Float r.r_optimized_s);
        ("speedup", Obs.Json.Float r.r_speedup);
        ("bit_identical", Obs.Json.Bool true);
        ("timing", Obs.Json.Obj (Report.paths_fields r.r_report.Campaign.paths));
        ("results", Report.campaign_results r.r_report);
      ]
  in
  Report.write path
    (Report.versioned ~schema:"elzar.bench.campaign"
       [
         ("injections", Obs.Json.Int !Common.fi_injections);
         ("jobs", Obs.Json.Int (Common.fi_effective_jobs ()));
         ("campaigns", Obs.Json.List (List.map row_json rows));
         ("gmean_speedup", Obs.Json.Float g);
       ])

let run () =
  Common.heading
    (Printf.sprintf
       "Campaign wall-time: reference+replay vs compiled+fast-forward (%d injections, %d \
        workers)"
       !Common.fi_injections (Common.fi_effective_jobs ()));
  Printf.printf "%-10s %-5s %6s %12s %12s %8s %7s\n" "bench" "model" "runs" "baseline-s"
    "optimized-s" "speedup" "fused";
  let rows =
    List.concat_map (fun b -> List.map (fun model -> measure b model) models) benchmarks
  in
  List.iter
    (fun r ->
      let p = r.r_report.Campaign.paths in
      Printf.printf "%-10s %-5s %6d %12.2f %12.2f %7.2fx %6.1f%%\n" r.r_bench
        (Fault.model_to_string r.r_model) r.r_runs r.r_baseline_s r.r_optimized_s r.r_speedup
        (100.0 *. float_of_int p.Cpu.Machine.fused
         /. float_of_int (max 1 (p.Cpu.Machine.fused + p.Cpu.Machine.stepped))))
    rows;
  let g = Common.gmean (List.map (fun r -> r.r_speedup) rows) in
  Printf.printf "%-10s %-5s %32s %7.2fx\n" "gmean" "" "" g;
  if !Common.json_reports then begin
    emit_json "BENCH_campaign.json" rows g;
    Printf.printf "wrote BENCH_campaign.json (reports bit-identical)\n"
  end
