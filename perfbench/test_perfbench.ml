(* The benchmark's own tests: a tiny-input smoke of every workload, traced
   and untraced (result-line schema, every named metric present, every
   fingerprint matching the reference engine), the committed fingerprint
   table, and a deliberately wrong fingerprint being caught. *)

open Perfbench

let check_bool = Alcotest.(check bool)
let check_strs = Alcotest.(check (list string))

let smoke ?(trace = false) workload =
  { Bench.workload; seed = 42; seconds = 0.0; trace; smoke = true }

let metric_names (r : Bench.result) = List.map (fun (n, _, _) -> n) r.Bench.metrics

(* The result line is one JSON object with exactly these keys, in order. *)
let result_keys (r : Bench.result) =
  match Bench.result_line r with
  | Obs.Json.Obj fields -> List.map fst fields
  | _ -> []

let end_to_end = [ "sim_mips"; "exp_per_s"; "setup_s"; "peak_rss_mb" ]

let untraced workload () =
  let r = Bench.run (smoke workload) (Fp.empty ()) in
  check_strs "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] (result_keys r);
  check_strs "end-to-end metrics" end_to_end (metric_names r);
  check_bool "fingerprints match the reference engine" true r.Bench.correct;
  check_bool "attempted" true (r.Bench.attempted >= 1);
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  List.iter
    (fun (n, v, _) -> check_bool (n ^ " is positive") true (v > 0.0))
    r.Bench.metrics

let traced workload () =
  let r = Bench.run (smoke ~trace:true workload) (Fp.empty ()) in
  check_strs "per-layer metrics" (List.map fst Bench.per_layer) (metric_names r);
  check_bool "fingerprints match the reference engine" true r.Bench.correct;
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  check_bool "spans recorded" true (r.Bench.spans <> []);
  let layer n = List.assoc_opt n r.Bench.layers in
  check_bool "top-level spans cover the traced pass" true
    (match layer "trace.coverage" with Some c -> c >= 0.95 | None -> false);
  if workload <> "sim-suite" then
    List.iter
      (fun n -> check_bool (n ^ " reported") true (layer n <> None))
      [
        "cpu.snapshot_s"; "cpu.restore_ms_p50"; "fault.golden_s"; "fault.exp_ms_p50";
        "fault.exec_instrs_per_exp"; "fault.corrected_frac"; "campaign.not_reached_frac";
        "supervisor.overhead_frac";
      ]

(* A wrong reference fingerprint makes the run incorrect and counts its
   operations as failed. *)
let wrong_fingerprint workload () =
  let opts = smoke workload in
  let keys =
    match List.find_opt (fun (c : Camp.t) -> c.Camp.name = workload) Camp.all with
    | Some c -> [ Camp.key c ~seed:42 ~n:(Bench.campaign_n opts c) ]
    | None -> List.map (fun (c : Sim.cell) -> c.Sim.key) (Sim.setup Workloads.Workload.Tiny)
  in
  let refs = Fp.empty () in
  List.iter (fun k -> Hashtbl.replace refs k "0:0:wrong") keys;
  let r = Bench.run opts refs in
  check_bool "mismatch caught" false r.Bench.correct;
  check_bool "counted as failed" true (r.Bench.failed > 0)

(* The committed table covers every workload at full size and the default
   seed, so default-seed runs compute no reference fingerprints. *)
let committed () =
  let refs = Fp.load "fingerprints.txt" in
  let keys =
    List.map (fun (c : Sim.cell) -> c.Sim.key) (Sim.setup Workloads.Workload.Medium)
    @ List.map (fun (c : Camp.t) -> Camp.key c ~seed:42 ~n:c.Camp.n) Camp.all
  in
  List.iter (fun k -> check_bool (k ^ " committed") true (Hashtbl.mem refs k)) keys

(* BENCHMARK.json names exactly the metrics the result lines carry. *)
let benchmark_json () =
  let doc = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let names =
    List.filter_map
      (fun l ->
        match String.split_on_char '"' l with
        | _ :: "name" :: _ :: n :: _ -> Some n
        | _ -> None)
      (String.split_on_char '\n' doc)
  in
  check_strs "workloads, end-to-end and per-layer metrics"
    (Bench.workloads @ end_to_end @ List.map fst Bench.per_layer)
    names

let () =
  let per_workload name f =
    List.map (fun w -> Alcotest.test_case (name ^ " " ^ w) `Quick (f w)) Bench.workloads
  in
  Alcotest.run "perfbench"
    [
      ("smoke", per_workload "untraced" untraced @ per_workload "traced" traced);
      ( "fingerprint",
        Alcotest.test_case "committed table" `Quick committed
        :: Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json
        :: per_workload "wrong" wrong_fingerprint );
    ]
