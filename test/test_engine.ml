(* Engine equivalence: the compiled engine must be bit-identical to the
   reference interpreter — same wall cycles, per-thread counters, output
   bytes, traps and fault-site streams — across every workload and build
   flavour, with and without an armed injection.  Also checks that
   restoring a mid-run snapshot and resuming reproduces the reference run
   exactly (the soundness condition behind campaign fast-forward, and
   behind lazy compilation: a restored machine first compiles each
   instruction at a different run state), that an armed fault site
   deoptimizes only the block instance holding it, that supervision
   hooks keep quantum-boundary discipline, and that lazy compilation
   patches each code slot once. *)

let builds =
  [
    Elzar.Native;
    Elzar.Native_novec;
    Elzar.Hardened Elzar.Harden_config.default;
    Elzar.Swiftr;
  ]

let cfg_with engine = { Cpu.Machine.default_config with Cpu.Machine.engine }

let check_result name (a : Cpu.Machine.result) (b : Cpu.Machine.result) =
  let open Cpu.Machine in
  Alcotest.(check int) (name ^ ": wall_cycles") a.wall_cycles b.wall_cycles;
  Alcotest.(check string) (name ^ ": output") a.output_bytes b.output_bytes;
  Alcotest.(check (option string))
    (name ^ ": trap")
    (Option.map string_of_trap a.trap)
    (Option.map string_of_trap b.trap);
  Alcotest.(check int) (name ^ ": inject_sites") a.inject_sites b.inject_sites;
  Alcotest.(check int) (name ^ ": mem_sites") a.mem_sites b.mem_sites;
  Alcotest.(check int) (name ^ ": branch_sites") a.branch_sites b.branch_sites;
  Alcotest.(check int) (name ^ ": recovered") a.recovered_faults b.recovered_faults;
  Alcotest.(check int) (name ^ ": reexecutions") a.reexecutions b.reexecutions;
  Alcotest.(check bool) (name ^ ": injected") a.fault_injected b.fault_injected;
  (* catch-all structural equality: counters lists, detect latency, ... *)
  if a <> b then Alcotest.failf "%s: results differ structurally" name

(* every workload, every build flavour: reference == compiled, fused and
   (profiling disables fusion) per-instruction *)
let check_engines (w : Workloads.Workload.t) () =
  List.iter
    (fun b ->
      let run ?profile engine =
        Workloads.Workload.execute
          ~machine_cfg:{ (cfg_with engine) with Cpu.Machine.profile }
          w ~build:b ~nthreads:2 ~size:Workloads.Workload.Tiny
      in
      let name = w.Workloads.Workload.name ^ "/" ^ Elzar.build_name b in
      let reference = run Cpu.Machine.Reference in
      check_result name reference (run Cpu.Machine.Compiled);
      check_result (name ^ "/unfused") reference
        (run ~profile:(Cpu.Profile.create ()) Cpu.Machine.Compiled))
    builds

(* armed injections: the per-kind site streams and fault hooks must fire
   at the same instruction under both engines *)
let check_inject_engines () =
  let w = Workloads.Registry.find "hist" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  List.iter
    (fun (kind, at, reexec_retries) ->
      let inject =
        Some { Cpu.Machine.at; lane = 1; bit = 13; second = None; kind }
      in
      let run engine =
        Workloads.Workload.execute
          ~machine_cfg:
            { Cpu.Machine.default_config with Cpu.Machine.engine; inject; reexec_retries }
          w ~build:harden ~nthreads:2 ~size:Workloads.Workload.Tiny
      in
      let name =
        Printf.sprintf "inject %s@%d/r%d"
          (Cpu.Machine.fault_kind_to_string kind)
          at reexec_retries
      in
      check_result name (run Cpu.Machine.Reference) (run Cpu.Machine.Compiled))
    [
      (Cpu.Machine.Reg_flip, 5_000, 0);
      (Cpu.Machine.Reg_flip, 50_000, 0);
      (Cpu.Machine.Reg_flip, 20_000, 2);
      (Cpu.Machine.Mem_flip, 2_000, 0);
      (Cpu.Machine.Addr_flip, 3_000, 0);
      (Cpu.Machine.Branch_flip, 1_000, 0);
    ]

(* site streams are a property of the code: every run counts all three,
   whatever it arms.  A plain run and runs armed past the end of each
   kind's own stream (so nothing fires) report the golden run's register,
   memory and branch site counts, under both engines *)
let check_site_streams () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let streams (r : Cpu.Machine.result) =
    (r.Cpu.Machine.inject_sites, r.Cpu.Machine.mem_sites, r.Cpu.Machine.branch_sites)
  in
  let golden = streams (Fault.golden spec) in
  let regs, mems, brs = golden in
  Alcotest.(check bool) "golden counts every stream" true (regs > 0 && mems > 0 && brs > 0);
  let run cfg =
    let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
    spec.Fault.init m;
    Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry
  in
  List.iter
    (fun engine ->
      let cfg =
        { (cfg_with engine) with Cpu.Machine.reexec_retries = spec.Fault.reexec_retries }
      in
      let e = Cpu.Machine.engine_to_string engine in
      Alcotest.(check (triple int int int)) (e ^ ": plain run") golden (streams (run cfg));
      List.iter
        (fun (kind, past) ->
          let name = Printf.sprintf "%s: %s armed past its stream" e
              (Cpu.Machine.fault_kind_to_string kind) in
          let inject = Some { Cpu.Machine.at = past + 1; lane = 1; bit = 13; second = None; kind } in
          let r = run { cfg with Cpu.Machine.inject } in
          Alcotest.(check bool) (name ^ ": not reached") false r.Cpu.Machine.fault_injected;
          Alcotest.(check (triple int int int)) name golden (streams r))
        [
          (Cpu.Machine.Reg_flip, regs);
          (Cpu.Machine.Mem_flip, mems);
          (Cpu.Machine.Addr_flip, mems);
          (Cpu.Machine.Branch_flip, brs);
        ])
    Cpu.Machine.engines

(* snapshot/restore: the snapshot-taking run and a resume from any mid-run
   snapshot must reproduce the reference straight run bit-for-bit, under
   either engine *)
let check_snapshot_resume engine () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let cfg =
    {
      Cpu.Machine.default_config with
      Cpu.Machine.engine;
      reexec_retries = spec.Fault.reexec_retries;
    }
  in
  let make_machine cfg =
    let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
    spec.Fault.init m;
    m
  in
  let golden =
    Cpu.Machine.run ~args:spec.Fault.args
      (make_machine { cfg with Cpu.Machine.engine = Cpu.Machine.Reference })
      spec.Fault.entry
  in
  let snaps = ref [] in
  let q = ref 0 in
  let straight =
    Cpu.Machine.run ~args:spec.Fault.args (make_machine cfg) spec.Fault.entry
      ~on_quantum:(fun mm ->
        incr q;
        if !q mod 40 = 0 then snaps := Cpu.Machine.snapshot mm :: !snaps)
  in
  check_result "straight run" golden straight;
  if !snaps = [] then Alcotest.fail "no snapshots captured";
  (* newest, oldest and a middle snapshot *)
  let all = Array.of_list !snaps in
  let picks = [ 0; Array.length all / 2; Array.length all - 1 ] in
  List.iter
    (fun i ->
      let sn = all.(i) in
      let r = Cpu.Machine.resume (Cpu.Machine.restore ~cfg sn) in
      check_result
        (Printf.sprintf "snapshot@%d" (Cpu.Machine.snapshot_instrs sn))
        golden r)
    (List.sort_uniq compare picks)

(* campaigns pinned to the executable spec: a reference-engine campaign
   without fast-forward is the baseline, and the compiled engine with
   fast-forward must reproduce its full report (per-outcome stats and
   every observation, including wall cycles and detection latencies) for
   any worker count, and across fault models, whose sites draw on the
   mem/branch streams *)
let check_campaign () =
  let w = Workloads.Registry.find "linreg" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let rspec = { spec with Fault.engine = Cpu.Machine.Reference } in
  let cspec = { spec with Fault.engine = Cpu.Machine.Compiled } in
  let same name (a : Campaign.report) (b : Campaign.report) =
    Alcotest.(check bool) (name ^ ": same stats") true (a.Campaign.stats = b.Campaign.stats);
    Alcotest.(check bool)
      (name ^ ": same outcomes")
      true
      (a.Campaign.outcomes = b.Campaign.outcomes)
  in
  let base = Campaign.single ~seed:19 ~n:24 ~jobs:1 ~fast_forward:false rspec in
  List.iter
    (fun jobs ->
      same (Printf.sprintf "jobs=%d" jobs) base
        (Campaign.single ~seed:19 ~n:24 ~jobs ~fast_forward:true cspec))
    [ 1; 2; 4 ];
  List.iter
    (fun model ->
      same (Fault.model_to_string model)
        (Campaign.model_campaign ~seed:23 ~n:8 ~jobs:1 ~fast_forward:false ~model rspec)
        (Campaign.model_campaign ~seed:23 ~n:8 ~jobs:2 ~fast_forward:true ~model cspec))
    [ Fault.Mem; Fault.Addr; Fault.Cf; Fault.Mixed ]

let count_fused (m : Cpu.Machine.t) =
  Array.fold_left
    (fun acc tbl ->
      Array.fold_left (fun a b -> match b with Some _ -> a + 1 | None -> a) acc tbl)
    0 m.Cpu.Machine.kblocks

let is_ender (it : Cpu.Code.citem) =
  match it.Cpu.Code.op with
  | Cpu.Code.Rcall _ | Cpu.Code.Rcall_ind _ | Cpu.Code.Tret _ | Cpu.Code.Tbr _
  | Cpu.Code.Tcondbr _ | Cpu.Code.Tvbr _ | Cpu.Code.Tvbr_u _ | Cpu.Code.Tunreachable ->
      true
  | _ -> false

(* Dynamic site numbers of an executed instance of the fused block whose
   prefix holds the most sites of one stream ([mem] selects the memory
   stream, else the register stream), taking its first instance that has
   a site before it: a traced reference run names every executed
   instruction in order (up to the trace cap), and [m_blk]'s block table
   says where fused prefixes start.  Returns the site count before the
   block and the number of sites in its prefix. *)
let block_window (spec : Fault.run_spec) (m_blk : Cpu.Machine.t) ~(mem : bool) : int * int =
  let buf = Buffer.create 1_000_000 in
  let cfg =
    {
      (cfg_with Cpu.Machine.Reference) with
      Cpu.Machine.trace = Some buf;
      reexec_retries = spec.Fault.reexec_retries;
    }
  in
  let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
  spec.Fault.init m;
  ignore (Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry : Cpu.Machine.result);
  let code = m_blk.Cpu.Machine.code in
  let is_site (it : Cpu.Code.citem) =
    it.Cpu.Code.flags land (if mem then Cpu.Code.fl_mem_site else Cpu.Code.fl_inject) <> 0
  in
  let prefix_sites (cf : Cpu.Code.cfunc) s =
    let blocks = m_blk.Cpu.Machine.kblocks.(cf.Cpu.Code.cf_id) in
    let rec go pc acc =
      if pc >= Array.length cf.Cpu.Code.code || is_ender cf.Cpu.Code.code.(pc)
         || (pc > s && blocks.(pc) <> None)
      then acc
      else go (pc + 1) (if is_site cf.Cpu.Code.code.(pc) then acc + 1 else acc)
    in
    go s 0
  in
  let count = ref 0 and found = ref None in
  List.iter
    (fun line ->
      if line <> "" then
        Scanf.sscanf line "T%d %c@%[^+]+%d:" (fun _ _ name pc ->
            let cf = code.Cpu.Code.cfuncs.(Hashtbl.find code.Cpu.Code.by_name name) in
            (match m_blk.Cpu.Machine.kblocks.(cf.Cpu.Code.cf_id).(pc) with
            | Some _ ->
                let k = prefix_sites cf pc in
                let best = match !found with Some (_, bk) -> bk | None -> 0 in
                if !count > 0 && k > best then found := Some (!count, k)
            | None -> ());
            if is_site cf.Cpu.Code.code.(pc) then incr count))
    (String.split_on_char '\n' (Buffer.contents buf));
  match !found with
  | Some w -> w
  | None ->
      Alcotest.failf "no fused block with a %s site in the trace"
        (if mem then "memory" else "register")

(* guarded fusion: an armed fault no longer changes which blocks fuse —
   only the one block instance whose site window holds the armed site
   runs per-instruction.  Sweeping the armed site across every site of
   one fused block and its two neighbours, in the register and the
   memory stream, must reproduce the reference interpreter exactly (site
   streams, injected class, detection latency), for the default and the
   future-AVX hardening (whose gather/scatter votes detect faults inside
   fused blocks) and under re-execution recovery, whose rollbacks replay
   the undo log of fused stores.  Default hardened blocks hold at most one memory site
   (every access is followed by its check), so a synthetic loop whose
   body makes four accesses sweeps a wider memory window too.  Finally a trap in the middle of a fused block must
   leave the site counts exact. *)
let check_guarded_fusion () =
  let open Ir in
  let sweep ?second name (spec : Fault.run_spec) ~mem ~bit kinds =
    let run_with cfg =
      let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
      spec.Fault.init m;
      let r = Cpu.Machine.run ~args:spec.Fault.args m spec.Fault.entry in
      (m, r)
    in
    let plain_cfg =
      { (cfg_with Cpu.Machine.Compiled) with
        Cpu.Machine.reexec_retries = spec.Fault.reexec_retries }
    in
    let m_plain, _ = run_with plain_cfg in
    let fused_plain = count_fused m_plain in
    Alcotest.(check bool) (name ^ ": plain build fuses blocks") true (fused_plain > 0);
    let base, k = block_window spec m_plain ~mem in
    let detected = ref 0 in
    List.iter
      (fun kind ->
        for at = base to base + k + 1 do
          let name =
            Printf.sprintf "%s %s@%d (block sites %d..%d)" name
              (Cpu.Machine.fault_kind_to_string kind) at (base + 1) (base + k)
          in
          let inject = Some { Cpu.Machine.at; lane = 1; bit; second; kind } in
          let bcfg = { plain_cfg with Cpu.Machine.inject } in
          let m_blk, r_blk = run_with bcfg in
          let _, r_ref = run_with { bcfg with Cpu.Machine.engine = Cpu.Machine.Reference } in
          Alcotest.(check int) (name ^ ": same blocks fuse") fused_plain (count_fused m_blk);
          Alcotest.(check bool)
            (name ^ ": runs fused")
            true
            ((Cpu.Machine.exec_stats m_blk).Cpu.Machine.fused > 0);
          Alcotest.(check bool) (name ^ ": fault fired") true r_ref.Cpu.Machine.fault_injected;
          if r_ref.Cpu.Machine.detect_latency <> None then incr detected;
          check_result name r_ref r_blk
        done)
      kinds;
    !detected
  in
  List.iter
    (fun (name, hcfg) ->
      let hist =
        Workloads.Workload.fi_spec (Workloads.Registry.find "hist")
          ~build:(Elzar.Hardened hcfg) ()
      in
      let detected = sweep name hist ~mem:false ~bit:13 [ Cpu.Machine.Reg_flip ] in
      Alcotest.(check bool) (name ^ " register sweep detects some fault") true (detected > 0);
      ignore
        (sweep name hist ~mem:true ~bit:13 [ Cpu.Machine.Mem_flip; Cpu.Machine.Addr_flip ]
          : int))
    [
      ("hist", Elzar.Harden_config.default);
      (* gathers/scatters vote inside fused blocks: detection latency is
         recorded mid-block *)
      ("hist/future-avx", { Elzar.Harden_config.default with future_avx = true });
    ];
  (* re-execution recovery: double flips leave a vote without majority,
     so the thread rolls back over stores that fused blocks undo-logged *)
  let reexec =
    Workloads.Workload.fi_spec (Workloads.Registry.find "hist")
      ~build:(Elzar.Hardened Elzar.Harden_config.reexec) ()
  in
  ignore
    (sweep ~second:(2, 13) "hist/reexec" reexec ~mem:false ~bit:13 [ Cpu.Machine.Reg_flip ]
      : int);
  let md = Builder.create_module () in
  Builder.global md "c0" 8;
  Builder.global md "c1" 8;
  let b, _ = Builder.func md "main" [ ("n", Types.i64) ] in
  Builder.for_ b ~lo:(Builder.i64c 0) ~hi:(Builder.i64c 6) (fun i ->
      let v = Builder.load b Types.i64 (Instr.Glob "c0") in
      let w = Builder.load b Types.i64 (Instr.Glob "c1") in
      Builder.store b (Builder.add b v i) (Instr.Glob "c0");
      Builder.store b (Builder.add b w v) (Instr.Glob "c1"));
  Builder.call0 b "output_i64" [ Builder.load b Types.i64 (Instr.Glob "c1") ];
  Builder.ret b None;
  Verifier.verify_exn md;
  (* bit 40 sends a faulty address out of simulated memory: a trap, so
     detection latency is exercised too *)
  let detected =
    sweep "loop" (Fault.make_spec md "main") ~mem:true ~bit:40
      [ Cpu.Machine.Mem_flip; Cpu.Machine.Addr_flip ]
  in
  Alcotest.(check bool) "loop memory sweep detects some fault" true (detected > 0);
  (* site counts with a trap mid-block: one straight-line hardened block whose
     sixth instruction segfaults.  The trapping load's memory site counts
     (its hook runs before the body), its register site does not (that
     hook runs after), and nothing after it counts *)
  let md = Builder.create_module () in
  let b, ps = Builder.func md "main" [ ("n", Types.i64) ] in
  let n = match ps with [ p ] -> Instr.Reg p | _ -> assert false in
  let p = Builder.alloca b 64 in
  let a = Builder.add b n (Builder.i64c 1) in
  Builder.store b a p;
  let c = Builder.load b Types.i64 p in
  let d = Builder.add b c a in
  let x = Builder.load b Types.i64 (Builder.ptrc 8) in
  Builder.store b (Builder.add b d x) p;
  Builder.ret b None;
  Verifier.verify_exn md;
  let run_trap engine =
    let m = Cpu.Machine.create ~cfg:(cfg_with engine) md in
    let r = Cpu.Machine.run ~args:[| 0L |] m "main" in
    (m, r)
  in
  let _, r_ref = run_trap Cpu.Machine.Reference in
  let m_blk, r_blk = run_trap Cpu.Machine.Compiled in
  Alcotest.(check bool)
    "mid-block trap is a segfault" true
    (match r_ref.Cpu.Machine.trap with Some (Cpu.Machine.Segfault _) -> true | _ -> false);
  Alcotest.(check int) "mid-block trap: inject_sites" 4 r_blk.Cpu.Machine.inject_sites;
  Alcotest.(check int) "mid-block trap: mem_sites" 3 r_blk.Cpu.Machine.mem_sites;
  let st = Cpu.Machine.exec_stats m_blk in
  Alcotest.(check (pair int int))
    "mid-block trap ran fused" (6, 0)
    (st.Cpu.Machine.fused, st.Cpu.Machine.stepped);
  check_result "mid-block trap" r_ref r_blk

(* supervision boundary discipline under the compiled engine: the abort hook
   is polled exactly once per scheduling quantum (not once per fused
   block), the chaos hook fires exactly once per run, and a cooperative
   abort still cuts the run short *)
let check_block_supervision () =
  let w = Workloads.Registry.find "hist" in
  let harden = Elzar.Hardened Elzar.Harden_config.default in
  let spec = Workloads.Workload.fi_spec w ~build:harden () in
  let run_cfg cfg ~on_quantum =
    let m = Cpu.Machine.create ~cfg ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul in
    spec.Fault.init m;
    Cpu.Machine.run ~args:spec.Fault.args ~on_quantum m spec.Fault.entry
  in
  let quanta = ref 0 and polls = ref 0 and chaos_fired = ref 0 in
  let cfg =
    {
      Cpu.Machine.default_config with
      Cpu.Machine.engine = Cpu.Machine.Compiled;
      abort =
        Some
          (fun () ->
            incr polls;
            false);
      chaos = Some (fun () -> incr chaos_fired);
    }
  in
  let r = run_cfg cfg ~on_quantum:(fun _ -> incr quanta) in
  Alcotest.(check (option string))
    "no trap" None
    (Option.map Cpu.Machine.string_of_trap r.Cpu.Machine.trap);
  Alcotest.(check bool) "ran more than one quantum" true (!quanta > 1);
  Alcotest.(check int) "chaos fired exactly once" 1 !chaos_fired;
  Alcotest.(check int) "abort polled once per quantum" !quanta !polls;
  let polls2 = ref 0 in
  let abort_cfg =
    {
      cfg with
      Cpu.Machine.abort =
        Some
          (fun () ->
            incr polls2;
            !polls2 >= 6);
      chaos = None;
    }
  in
  match run_cfg abort_cfg ~on_quantum:(fun _ -> ()) with
  | (_ : Cpu.Machine.result) -> Alcotest.fail "abort hook did not raise under compiled engine"
  | exception Cpu.Machine.Abort ->
      Alcotest.(check int) "aborted at the sixth boundary" 6 !polls2

(* lazy compilation: each [kcode] slot is patched at most once — its stub
   compiles the instruction on first call and is never entered again (a
   fused block that captured its ender's stub would re-patch that slot on
   every execution) — and compilation really is deferred: some slots are
   first patched after the first quantum boundary *)
let check_lazy_compile () =
  let w = Workloads.Registry.find "linreg" in
  List.iter
    (fun b ->
      let name = Elzar.build_name b in
      let spec = Workloads.Workload.fi_spec w ~build:b () in
      let m =
        Cpu.Machine.create ~cfg:(cfg_with Cpu.Machine.Compiled)
          ~flags_cmp:spec.Fault.flags_cmp spec.Fault.modul
      in
      spec.Fault.init m;
      let prev = ref None in
      let patches = ref [||] in
      let late = ref 0 in
      let observe (mm : Cpu.Machine.t) =
        let cur = Array.map Array.copy mm.Cpu.Machine.kcode in
        (match !prev with
        | None -> patches := Array.map (fun tbl -> Array.make (Array.length tbl) 0) cur
        | Some p ->
            Array.iteri
              (fun cf tbl ->
                Array.iteri
                  (fun pc k ->
                    if k != p.(cf).(pc) then begin
                      !patches.(cf).(pc) <- !patches.(cf).(pc) + 1;
                      incr late
                    end)
                  tbl)
              cur);
        prev := Some cur
      in
      let (_ : Cpu.Machine.result) =
        Cpu.Machine.run ~args:spec.Fault.args ~on_quantum:observe m spec.Fault.entry
      in
      observe m;
      Array.iteri
        (fun cf tbl ->
          Array.iteri
            (fun pc n ->
              if n > 1 then
                Alcotest.failf "%s: kcode.(%d).(%d) patched %d times after the first boundary"
                  name cf pc n)
            tbl)
        !patches;
      Alcotest.(check bool) (name ^ ": slots compiled after the first boundary") true (!late > 0))
    [ Elzar.Native; Elzar.Hardened Elzar.Harden_config.default ]

(* one source of engine names and of the default engine: the CLI and the
   bench name engines through [engines]/[engine_to_string], and fault
   specs default to the machine's default engine *)
let check_engine_names () =
  Alcotest.(check (list string))
    "engine names" [ "reference"; "compiled" ]
    (List.map Cpu.Machine.engine_to_string Cpu.Machine.engines);
  let default = Cpu.Machine.default_config.Cpu.Machine.engine in
  Alcotest.(check string) "default engine" "compiled" (Cpu.Machine.engine_to_string default);
  let w = Workloads.Registry.find "linreg" in
  let spec = Workloads.Workload.fi_spec w ~build:Elzar.Native () in
  Alcotest.(check bool) "fi_spec uses the default engine" true (spec.Fault.engine = default);
  let bare = Fault.make_spec spec.Fault.modul spec.Fault.entry in
  Alcotest.(check bool) "make_spec uses the default engine" true (bare.Fault.engine = default)

let workload_cases =
  List.map
    (fun w ->
      Alcotest.test_case ("equiv " ^ w.Workloads.Workload.name) `Quick (check_engines w))
    (Workloads.Registry.all @ Workloads.Registry.micro)

let tests =
  workload_cases
  @ [
      Alcotest.test_case "equiv under injection" `Quick check_inject_engines;
      Alcotest.test_case "site streams ignore arming" `Quick check_site_streams;
      Alcotest.test_case "snapshot resume (reference)" `Quick
        (check_snapshot_resume Cpu.Machine.Reference);
      Alcotest.test_case "snapshot resume (compiled)" `Quick
        (check_snapshot_resume Cpu.Machine.Compiled);
      Alcotest.test_case "campaign compiled+ff matches reference" `Quick check_campaign;
      Alcotest.test_case "guarded fusion at armed fault sites" `Quick check_guarded_fusion;
      Alcotest.test_case "block supervision quantum discipline" `Quick
        check_block_supervision;
      Alcotest.test_case "lazy compile patches each slot once" `Quick check_lazy_compile;
      Alcotest.test_case "engine names and default" `Quick check_engine_names;
    ]
