(* Command line of the repository benchmark; see README.md.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --emit-fingerprints [--seed N]

   Prints a summary line (run metadata, failure fraction, per-layer table)
   and, last, the result line.  Exits 1 when a fingerprint does not match
   the reference engine's. *)

open Perfbench

let fingerprints = "perfbench/fingerprints.txt"
let trace_dir = ".perfbench"

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let emit = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " Bench.workloads);
      ("--seed", Arg.Set_int seed, " campaign plan seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " host seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics (default 0)");
      ( "--emit-fingerprints",
        Arg.Set emit,
        " print the reference-engine fingerprints of every workload at --seed" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the repository benchmark";
  if !emit then begin
    let refs = Fp.empty () in
    Bench.reference_all ~seed:!seed refs;
    List.iter print_endline (Fp.to_lines refs)
  end
  else begin
    if not (List.mem !workload Bench.workloads) then begin
      prerr_endline
        ("perfbench: --workload must be one of: " ^ String.concat ", " Bench.workloads);
      exit 2
    end;
    let opts =
      {
        Bench.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        smoke = false;
      }
    in
    let r = Bench.run opts (Fp.load fingerprints) in
    if opts.Bench.trace then begin
      (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
      Obs.Json.to_file
        (Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed))
        (Bench.trace_doc opts r)
    end;
    print_endline (Obs.Json.to_string ~compact:true (Bench.details opts r));
    print_endline (Obs.Json.to_string ~compact:true (Bench.result_line r));
    if not r.Bench.correct then exit 1
  end
