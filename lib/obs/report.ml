(** Versioned JSON report rendering (see report.mli).  All member order is
    fixed by construction, so documents over identical data are
    bit-identical and diffable. *)

module J = Obs.Json

(* v2: campaign results gained "quarantined"/"tool_errors" (supervised
   execution), campaign timing gained "worker_deaths"/"interrupted".
   v3: every campaign is supervised, so "elzar.bench.campaign" rows
   dropped "supervised_seconds"/"supervision_overhead" and the CLI
   campaign params dropped "supervised"; the "timeout" tool-error kind is
   gone. *)
let version = 3

let versioned ~(schema : string) (fields : (string * J.t) list) : J.t =
  J.Obj (("schema", J.Str schema) :: ("version", J.Int version) :: fields)

let counters (c : Cpu.Counters.t) : J.t =
  J.Obj
    [
      ("instrs", J.Int c.Cpu.Counters.instrs);
      ("uops", J.Int c.Cpu.Counters.uops);
      ("avx_instrs", J.Int c.Cpu.Counters.avx_instrs);
      ("loads", J.Int c.Cpu.Counters.loads);
      ("stores", J.Int c.Cpu.Counters.stores);
      ("branches", J.Int c.Cpu.Counters.branches);
      ("branch_misses", J.Int c.Cpu.Counters.branch_misses);
      ("l1_refs", J.Int c.Cpu.Counters.l1_refs);
      ("l1_misses", J.Int c.Cpu.Counters.l1_misses);
      ("cycles", J.Int c.Cpu.Counters.cycles);
    ]

let stats (s : Fault.stats) : J.t =
  J.Obj
    [
      ("runs", J.Int s.Fault.runs);
      ("hang", J.Int s.Fault.hang);
      ("deadlock", J.Int s.Fault.deadlock);
      ("os_detected", J.Int s.Fault.os_detected);
      ("corrected", J.Int s.Fault.corrected);
      ("masked", J.Int s.Fault.masked);
      ("sdc", J.Int s.Fault.sdc);
      ("crashed_pct", J.Float (Fault.crashed_pct s));
      ("correct_pct", J.Float (Fault.correct_pct s));
      ("sdc_pct", J.Float (Fault.sdc_pct s));
    ]

let avf (table : (string * Fault.stats) list) : J.t =
  J.List
    (List.map
       (fun (cls, s) -> J.Obj [ ("class", J.Str cls); ("stats", stats s) ])
       table)

(* log2 bucket of a positive latency: bucket k holds [2^k, 2^(k+1)). *)
let log2_bucket (l : int) : int =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  if l <= 1 then 0 else go l 0

let latency (obs : Fault.obs array) : J.t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (o : Fault.obs) ->
      match o.Fault.o_latency with
      | Some l when l >= 0 ->
          let k = log2_bucket l in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | _ -> ())
    obs;
  let buckets = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  J.Obj
    [
      ( "mean_instrs",
        match Fault.mean_latency obs with Some l -> J.Float l | None -> J.Null );
      ( "log2_histogram",
        J.List
          (List.map
             (fun (k, n) -> J.Obj [ ("bucket", J.Int k); ("count", J.Int n) ])
             buckets) );
    ]

let spans (rows : Obs.Span.row list) : J.t =
  J.List
    (List.map
       (fun (r : Obs.Span.row) ->
         J.Obj
           [
             ("span", J.Str r.Obs.Span.path);
             ("count", J.Int r.Obs.Span.count);
             ("wall_seconds", J.Float r.Obs.Span.wall);
             ("cycles", J.Int r.Obs.Span.cycles);
           ])
       rows)

let profile (p : Cpu.Profile.t) : J.t =
  J.List
    (List.map
       (fun (cls, instrs, cycles) ->
         J.Obj
           [
             ("class", J.Str cls);
             ("instrs", J.Int instrs);
             ("cycles", J.Int cycles);
             ( "cycles_per_instr",
               J.Float (float_of_int cycles /. float_of_int (max 1 instrs)) );
           ])
       (Cpu.Profile.rows p))

(* One quarantine record.  Deterministic fields only: the backtrace is
   host-run-dependent noise and stays out of the results block (it is
   still printed to stderr by the CLI). *)
let tool_error (te : Supervisor.tool_error) : J.t =
  J.Obj
    [
      ("round", J.Int te.Supervisor.te_round);
      ("slot", J.Int te.Supervisor.te_slot);
      ("kind", J.Str (Supervisor.error_kind_to_string te.Supervisor.te_kind));
      ("attempts", J.Int te.Supervisor.te_attempts);
      ("detail", J.Str te.Supervisor.te_detail);
    ]

let campaign_results (r : Campaign.report) : J.t =
  let obs = Array.map snd r.Campaign.outcomes in
  J.Obj
    [
      ("stats", stats r.Campaign.stats);
      ("avf", avf (Fault.avf_table obs));
      ("latency", latency obs);
      ("not_reached", J.Int r.Campaign.not_reached);
      (* always rendered (0/[] without tool errors), so the block has one
         shape for every campaign *)
      ("quarantined", J.Int (List.length r.Campaign.quarantined));
      ("tool_errors", J.List (List.map tool_error r.Campaign.quarantined));
    ]

let campaign ?(params = []) (r : Campaign.report) : J.t =
  versioned ~schema:"elzar.campaign"
    [
      ("campaign", J.Obj params);
      ("results", campaign_results r);
      ( "timing",
        J.Obj
          [
            ("wall_seconds", J.Float r.Campaign.wall_seconds);
            ("cycles_simulated", J.Int r.Campaign.cycles_simulated);
            ("experiments_run", J.Int r.Campaign.experiments_run);
            ("restored", J.Int r.Campaign.restored);
            ("jobs", J.Int r.Campaign.jobs);
            ("worker_deaths", J.Int r.Campaign.worker_deaths);
            ("interrupted", J.Bool r.Campaign.interrupted);
          ] );
      ("spans", spans r.Campaign.spans);
    ]

let run_result ?(params = []) ?profile:prof (r : Cpu.Machine.result) : J.t =
  versioned ~schema:"elzar.run"
    ([
       ("run", J.Obj params);
       ("wall_cycles", J.Int r.Cpu.Machine.wall_cycles);
       ("totals", counters r.Cpu.Machine.totals);
       ("output_digest", J.Str (Digest.to_hex r.Cpu.Machine.output_digest));
       ( "trap",
         match r.Cpu.Machine.trap with
         | Some t -> J.Str (Cpu.Machine.string_of_trap t)
         | None -> J.Null );
       ("recovered_faults", J.Int r.Cpu.Machine.recovered_faults);
       ("retried_faults", J.Int r.Cpu.Machine.retried_faults);
       ("reexecutions", J.Int r.Cpu.Machine.reexecutions);
     ]
    @ match prof with Some p -> [ ("profile", profile p) ] | None -> [])

let write (path : string) (doc : J.t) : unit = J.to_file path doc
