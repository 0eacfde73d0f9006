(* Supervised campaign execution tests: every chaos path end-to-end
   against the real engine (host-exception retry/quarantine, worker death
   and requeue), quarantine persistence across checkpoint resume,
   bit-identity of the deterministic results with a pool-free baseline for
   any worker count, runaway runs as Hang outcomes, and cooperative
   cancellation.

   The workload is Test_fault's pure-compute kernel: a single
   deterministic path whose injection sites are all always reached, so a
   campaign of [n] experiments yields exactly [n] outcomes in plan-slot
   order (no Not_reached redraws).  That makes the strongest assertion
   cheap: quarantining slot [s] must yield precisely the baseline
   outcomes with index [s] removed. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec () = Test_fault.spec_of (Elzar.Hardened Elzar.Harden_config.default)

(* The campaign's plan and golden run, rebuilt outside the campaign engine
   with the same seed, draw order and hang budget as
   [Campaign.single ~seed:51 ~n:16]. *)
let plan_and_golden spec =
  let golden = Fault.golden spec in
  let rng = Random.State.make [| 51 |] in
  let sites = golden.Cpu.Machine.inject_sites in
  (* slot 0 is drawn first, then the loop continues in plan order *)
  let exps = Array.make 16 (Campaign.draw_single rng ~sites) in
  for i = 1 to 15 do
    exps.(i) <- Campaign.draw_single rng ~sites
  done;
  (exps, golden)

(* Every planned experiment run one at a time, with no worker pool and no
   supervisor: what any campaign over this plan must report. *)
let pool_free spec exps golden =
  let max_instrs = Fault.hang_budget ~golden spec in
  Array.map
    (fun e -> (e, Fault.observe ~golden (Fault.run_experiment ~max_instrs spec e)))
    exps

let baseline_outcomes =
  let r =
    lazy
      (let spec = spec () in
       let exps, golden = plan_and_golden spec in
       pool_free spec exps golden)
  in
  fun () -> Lazy.force r

(* Baseline outcomes with the given plan slots removed: what a campaign
   that quarantined exactly those slots must report. *)
let outcomes_without slots =
  Array.of_list
    (List.filteri
       (fun i _ -> not (List.mem i slots))
       (Array.to_list (baseline_outcomes ())))

let results_equal (r : Campaign.report) (expect : (Fault.experiment * Fault.obs) array)
    =
  r.Campaign.outcomes = expect
  && r.Campaign.stats
     = Array.fold_left
         (fun s (_, o) -> Fault.add_outcome s o.Fault.o_outcome)
         Fault.empty_stats expect

(* ---- the pool reproduces the pool-free baseline at any job count ---- *)

let test_pool_matches_pool_free () =
  let b = baseline_outcomes () in
  check_bool "baseline has no discards" true
    (Array.for_all (fun (_, o) -> o.Fault.o_outcome <> Fault.Not_reached) b);
  List.iter
    (fun jobs ->
      let r = Campaign.single ~seed:51 ~n:16 ~jobs (spec ()) in
      check_bool
        (Printf.sprintf "jobs=%d matches the pool-free baseline" jobs)
        true (results_equal r b);
      check_bool "nothing quarantined" true (r.Campaign.quarantined = []);
      check_int "no worker deaths" 0 r.Campaign.worker_deaths;
      check_bool "not interrupted" false r.Campaign.interrupted)
    [ 1; 2; 4 ]

(* ---- a runaway simulation is a Hang outcome, never a tool error ---- *)

let test_hang_outcome_not_quarantined () =
  (* unhardened kernel: flipping the sign bit of the loop counter turns a
     40-iteration loop into a ~2^63-iteration one, cut off by the hang
     budget.  Find such a site, then campaign it among ordinary runs. *)
  let spec = Test_fault.spec_of Elzar.Native_novec in
  let golden = Fault.golden spec in
  let max_instrs = Fault.hang_budget ~golden spec in
  let flip at =
    { Fault.at; lane = 0; bit = 63; second = None; kind = Cpu.Machine.Reg_flip }
  in
  let hangs e =
    (Fault.observe ~golden (Fault.run_experiment ~max_instrs spec e)).Fault.o_outcome
    = Fault.Hang
  in
  let rec find at =
    if at > golden.Cpu.Machine.inject_sites then Alcotest.fail "no hanging site found"
    else if hangs (flip at) then flip at
    else find (at + 1)
  in
  let h = find 1 in
  let exps = [| flip 1; h; flip 2; flip 3; h; flip 4 |] in
  let expect = pool_free spec exps golden in
  let hangs_expected =
    Array.fold_left
      (fun n (_, o) -> if o.Fault.o_outcome = Fault.Hang then n + 1 else n)
      0 expect
  in
  check_bool "plan holds both hanging experiments" true (hangs_expected >= 2);
  List.iter
    (fun jobs ->
      let r = Campaign.run ~jobs ~spec ~golden exps in
      check_int (Printf.sprintf "jobs=%d: hangs counted as hang" jobs) hangs_expected
        r.Campaign.stats.Fault.hang;
      check_bool (Printf.sprintf "jobs=%d: nothing quarantined" jobs) true
        (r.Campaign.quarantined = []);
      check_bool
        (Printf.sprintf "jobs=%d: matches the pool-free baseline" jobs)
        true (results_equal r expect))
    [ 1; 2; 4 ]

(* ---- host exception on the Nth experiment: retried, then clean ---- *)

let test_chaos_raise_retried () =
  let c = Supervisor.chaos ~slot:3 Supervisor.Chaos_raise in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:1 ~chaos:[ c ] (spec ()) in
  (* one-shot: the first execution raised, the deterministic re-execution
     succeeded, and nothing reached the report *)
  check_int "slot executed twice" 2 (Supervisor.chaos_hits c);
  check_bool "report identical to chaos-free baseline" true
    (results_equal r (baseline_outcomes ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

(* ---- host exception on every attempt: quarantined, campaign continues ---- *)

let test_chaos_raise_persistent_quarantines () =
  let c = Supervisor.chaos ~persistent:true ~slot:2 Supervisor.Chaos_raise in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:1 ~chaos:[ c ] (spec ()) in
  (match r.Campaign.quarantined with
  | [ te ] ->
      check_bool "kind" true (te.Supervisor.te_kind = Supervisor.Host_exception);
      check_int "slot" 2 te.Supervisor.te_slot;
      check_int "attempts = 1 + retries" 3 te.Supervisor.te_attempts;
      check_bool "detail names the exception" true
        (te.Supervisor.te_detail = "Test_supervisor.Supervisor.Chaos_failure"
        || String.length te.Supervisor.te_detail > 0)
  | l -> Alcotest.failf "expected 1 quarantine, got %d" (List.length l));
  check_int "all attempts consumed" 3 (Supervisor.chaos_hits c);
  check_bool "other 15 outcomes unaffected" true (results_equal r (outcomes_without [ 2 ]))

(* ---- slow experiment: finishes, untouched ---- *)

let test_chaos_slow_tolerated () =
  let c = Supervisor.chaos ~slot:4 (Supervisor.Chaos_slow 0.05) in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:1 ~chaos:[ c ] (spec ()) in
  check_int "slot executed once" 1 (Supervisor.chaos_hits c);
  check_bool "report identical to chaos-free baseline" true
    (results_equal r (baseline_outcomes ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

(* ---- worker death: caught by the pool, slot requeued, worker carries on ---- *)

let test_chaos_kill_requeued () =
  (* one-shot kill: the worker dies, the slot is requeued and succeeds on
     its second execution — the report must not show a trace of it *)
  let c = Supervisor.chaos ~slot:5 Supervisor.Chaos_kill in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:2 ~chaos:[ c ] (spec ()) in
  check_int "one worker death" 1 r.Campaign.worker_deaths;
  check_bool "report identical to chaos-free baseline" true
    (results_equal r (baseline_outcomes ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = [])

let test_chaos_kill_persistent_quarantines () =
  let c = Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_kill in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:2 ~chaos:[ c ] (spec ()) in
  (match r.Campaign.quarantined with
  | [ te ] ->
      check_bool "kind" true (te.Supervisor.te_kind = Supervisor.Worker_death);
      check_int "slot" 0 te.Supervisor.te_slot;
      check_int "died on every allowed execution" 3 te.Supervisor.te_attempts
  | l -> Alcotest.failf "expected 1 worker-death quarantine, got %d" (List.length l));
  check_int "three worker deaths" 3 r.Campaign.worker_deaths;
  check_bool "other 15 outcomes unaffected" true (results_equal r (outcomes_without [ 0 ]))

(* ---- -j 1 runs its only worker on the calling domain: a death there is
   caught by the same handler and the campaign carries on ---- *)

let test_chaos_kill_on_calling_domain () =
  let c = Supervisor.chaos ~slot:5 Supervisor.Chaos_kill in
  let r = Campaign.single ~seed:51 ~n:16 ~jobs:1 ~chaos:[ c ] (spec ()) in
  check_int "slot executed twice" 2 (Supervisor.chaos_hits c);
  check_int "one worker death" 1 r.Campaign.worker_deaths;
  check_bool "report identical to chaos-free baseline" true
    (results_equal r (baseline_outcomes ()));
  check_bool "no quarantine" true (r.Campaign.quarantined = []);
  check_bool "not interrupted" false r.Campaign.interrupted

(* ---- [retries] from [?supervise] bounds both failure paths: with no
   retries, a one-shot raise or kill is quarantined after one attempt ---- *)

let test_retry_budget_honoured () =
  let supervise = { Supervisor.default with Supervisor.retries = 0 } in
  let raise_ = Supervisor.chaos ~slot:2 Supervisor.Chaos_raise in
  let kill = Supervisor.chaos ~slot:6 Supervisor.Chaos_kill in
  let r =
    Campaign.single ~seed:51 ~n:16 ~jobs:2 ~supervise ~chaos:[ raise_; kill ] (spec ())
  in
  check_int "raising slot executed once" 1 (Supervisor.chaos_hits raise_);
  check_int "killing slot executed once" 1 (Supervisor.chaos_hits kill);
  check_bool "both quarantined after one attempt, in slot order" true
    (List.map
       (fun te -> (te.Supervisor.te_slot, te.Supervisor.te_kind, te.Supervisor.te_attempts))
       r.Campaign.quarantined
    = [ (2, Supervisor.Host_exception, 1); (6, Supervisor.Worker_death, 1) ]);
  check_int "one worker death" 1 r.Campaign.worker_deaths;
  check_bool "other 14 outcomes unaffected" true (results_equal r (outcomes_without [ 2; 6 ]))

(* ---- mixed chaos storm, any worker count: campaign completes in
   degraded mode with the same results block everywhere ---- *)

let test_chaos_storm_worker_invariant () =
  let run jobs =
    Campaign.single ~seed:51 ~n:16 ~jobs
      ~chaos:
        [
          Supervisor.chaos ~persistent:true ~slot:3 Supervisor.Chaos_raise;
          Supervisor.chaos ~persistent:true ~slot:7 Supervisor.Chaos_kill;
          Supervisor.chaos ~slot:9 Supervisor.Chaos_raise;
          Supervisor.chaos ~slot:11 (Supervisor.Chaos_slow 0.02);
        ]
      (spec ())
  in
  let expect = outcomes_without [ 3; 7 ] in
  List.iter
    (fun jobs ->
      let r = run jobs in
      check_int
        (Printf.sprintf "jobs=%d: two quarantines" jobs)
        2
        (List.length r.Campaign.quarantined);
      check_bool
        (Printf.sprintf "jobs=%d: quarantines in slot order" jobs)
        true
        (List.map (fun te -> (te.Supervisor.te_slot, te.Supervisor.te_kind))
           r.Campaign.quarantined
        = [ (3, Supervisor.Host_exception); (7, Supervisor.Worker_death) ]);
      check_int (Printf.sprintf "jobs=%d: slot 7 killed its worker 3 times" jobs) 3
        r.Campaign.worker_deaths;
      check_bool
        (Printf.sprintf "jobs=%d: surviving outcomes bit-identical" jobs)
        true (results_equal r expect))
    [ 1; 2; 4 ]

(* ---- quarantine persists in the checkpoint: a resumed campaign never
   re-executes a known-poison plan ---- *)

let test_quarantine_persists_across_resume () =
  let path = Filename.temp_file "elzar_supervisor" ".ck" in
  Sys.remove path;
  let cancel = Atomic.make false in
  let r1 =
    Campaign.single ~seed:51 ~n:16 ~jobs:1 ~checkpoint:path ~cancel
      ~chaos:[ Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_raise ]
      ~progress:(fun p -> if p.Campaign.completed >= 10 then Atomic.set cancel true)
      (spec ())
  in
  check_bool "first run interrupted" true r1.Campaign.interrupted;
  check_int "slot 0 quarantined before the interrupt" 1
    (List.length r1.Campaign.quarantined);
  check_bool "checkpoint kept" true (Sys.file_exists path);
  (* resume with a FRESH chaos spec on the same slot: if the resume ever
     re-executed the quarantined experiment, this spec would be consulted
     and its hit counter would advance *)
  let probe = Supervisor.chaos ~persistent:true ~slot:0 Supervisor.Chaos_raise in
  let r2 =
    Campaign.single ~seed:51 ~n:16 ~jobs:1 ~checkpoint:path ~chaos:[ probe ] (spec ())
  in
  check_int "quarantined slot never re-executed" 0 (Supervisor.chaos_hits probe);
  (match r2.Campaign.quarantined with
  | [ te ] ->
      check_int "quarantine restored from checkpoint" 0 te.Supervisor.te_slot;
      check_bool "restored record keeps its kind" true
        (te.Supervisor.te_kind = Supervisor.Host_exception)
  | l -> Alcotest.failf "expected the restored quarantine, got %d" (List.length l));
  check_bool "resume restored completed experiments" true (r2.Campaign.restored > 0);
  check_bool "final outcomes = baseline minus the poisoned slot" true
    (results_equal r2 (outcomes_without [ 0 ]));
  check_bool "checkpoint removed after completion" true (not (Sys.file_exists path))

(* ---- a raising progress callback must not kill the campaign ---- *)

let test_progress_exception_safe () =
  let calls = ref 0 in
  let r =
    Campaign.single ~seed:51 ~n:16 ~jobs:1
      ~progress:(fun _ ->
        incr calls;
        failwith "progress consumer bug")
      (spec ())
  in
  check_bool "campaign completed despite raising progress" true
    (results_equal r (baseline_outcomes ()));
  check_int "callback still called every experiment" 16 !calls

(* ---- cancellation: stops at the next boundary ---- *)

let test_cancel () =
  let cancel = Atomic.make false in
  let r =
    Campaign.single ~seed:51 ~n:16 ~jobs:1 ~cancel
      ~progress:(fun p -> if p.Campaign.completed >= 5 then Atomic.set cancel true)
      (spec ())
  in
  check_bool "interrupted" true r.Campaign.interrupted;
  check_bool "partial outcomes only" true (Array.length r.Campaign.outcomes < 16);
  check_bool "at least the 5 completed" true (Array.length r.Campaign.outcomes >= 5)

let tests =
  [
    Alcotest.test_case "pool = pool-free baseline at jobs 1/2/4" `Quick
      test_pool_matches_pool_free;
    Alcotest.test_case "hang is an outcome, not a tool error" `Quick
      test_hang_outcome_not_quarantined;
    Alcotest.test_case "host exception retried clean" `Quick test_chaos_raise_retried;
    Alcotest.test_case "persistent exception quarantined" `Quick
      test_chaos_raise_persistent_quarantines;
    Alcotest.test_case "slow run tolerated" `Quick test_chaos_slow_tolerated;
    Alcotest.test_case "worker death requeued clean" `Quick test_chaos_kill_requeued;
    Alcotest.test_case "repeated worker death quarantined" `Quick
      test_chaos_kill_persistent_quarantines;
    Alcotest.test_case "worker death at -j 1 caught in place" `Quick
      test_chaos_kill_on_calling_domain;
    Alcotest.test_case "retry budget honoured" `Quick test_retry_budget_honoured;
    Alcotest.test_case "chaos storm worker-invariant" `Quick
      test_chaos_storm_worker_invariant;
    Alcotest.test_case "quarantine persists across resume" `Quick
      test_quarantine_persists_across_resume;
    Alcotest.test_case "raising progress callback survives" `Quick
      test_progress_exception_safe;
    Alcotest.test_case "cancel interrupts a campaign" `Quick test_cancel;
  ]
