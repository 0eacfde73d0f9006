(* The two campaign workloads, and a stepwise replay of a
   campaign's golden run, plan and experiments one call at a time so the
   traced pass can time each experiment.

   Both campaigns run supervised under {!Supervisor.default}, with
   snapshot fast-forward on (the library default) and the program's
   default engine. *)

module W = Workloads.Workload

type t = {
  name : string;
  kernel : string;
  build : Elzar.build;
  model : Fault.model;
  jobs : int;
  n : int;  (** planned injections *)
}

(* Fig. 13: register SEUs into linreg under the elzar build, with the CLI
   [inject] defaults (tiny inputs, 2 simulated threads), serially. *)
let reg =
  {
    name = "campaign-reg";
    kernel = "linreg";
    build = Elzar.Hardened Elzar.Harden_config.default;
    model = Fault.Reg;
    jobs = 1;
    n = 300;
  }

(* The same layer used differently: the mixed reg/mem/addr/cf model into
   hist under the re-execution build, on two worker domains. *)
let mixed_j2 =
  {
    name = "campaign-mixed-j2";
    kernel = "hist";
    build = Elzar.Hardened Elzar.Harden_config.reexec;
    model = Fault.Mixed;
    jobs = 2;
    n = 200;
  }

let all = [ reg; mixed_j2 ]
let size = W.Tiny

(* [Workload.fi_spec] (build + prepare), on the default engine. *)
let spec ?(engine = Cpu.Machine.default_config.Cpu.Machine.engine) (c : t) : Fault.run_spec =
  let w = Workloads.Registry.find c.kernel in
  { (W.fi_spec w ~build:c.build ()) with Fault.engine }

let key (c : t) ~seed ~n = Printf.sprintf "%s/seed%d/n%d" c.name seed n

(* The whole user-visible campaign call: golden run, plan and execution. *)
let call (c : t) ~seed ~n (spec : Fault.run_spec) : Campaign.report =
  let supervise = Supervisor.default in
  match c.model with
  | Fault.Reg -> Campaign.single ~seed ~n ~jobs:c.jobs ~supervise spec
  | model -> Campaign.model_campaign ~seed ~n ~jobs:c.jobs ~supervise ~model spec

(* The campaign's plan over the golden run's site streams, drawn in order
   with the RNG seeding {!Campaign.single} / {!Campaign.model_campaign}
   use, and the redraw function that continues that RNG. *)
let plan (c : t) ~seed ~n (g : Cpu.Machine.result) :
    Fault.experiment array * (unit -> Fault.experiment) =
  let sites = g.Cpu.Machine.inject_sites in
  let draw =
    match c.model with
    | Fault.Reg ->
        let rng = Random.State.make [| seed |] in
        fun () -> Campaign.draw_single rng ~sites
    | model ->
        let rng =
          Random.State.make [| seed; Hashtbl.hash (Fault.model_to_string model) |]
        in
        fun () ->
          Campaign.draw_model rng ~model ~sites ~mem_sites:g.Cpu.Machine.mem_sites
            ~branch_sites:g.Cpu.Machine.branch_sites
  in
  let rec go i acc =
    if i = n then Array.of_list (List.rev acc) else go (i + 1) (draw () :: acc)
  in
  (go 0 [], draw)

(* Redraw rounds {!Campaign.run} allows for unreached sites. *)
let max_rounds = 8

(* Simulated instructions an experiment ran after the snapshot it resumed
   from (the snapshot {!Fault.run_experiment_from} picks: the latest whose
   site counter for the fault's kind is below the site). *)
let exec_instrs snapshots (e : Fault.experiment) (r : Cpu.Machine.result) =
  let stream sn =
    let reg, mem, br = Cpu.Machine.snapshot_sites sn in
    match e.Fault.kind with
    | Cpu.Machine.Reg_flip -> reg
    | Cpu.Machine.Mem_flip | Cpu.Machine.Addr_flip -> mem
    | Cpu.Machine.Branch_flip -> br
  in
  let start =
    Array.fold_left
      (fun acc sn -> if stream sn < e.Fault.at then Cpu.Machine.snapshot_instrs sn else acc)
      0 snapshots
  in
  r.Cpu.Machine.totals.Cpu.Counters.instrs - start

type experiment = {
  outcome : Fault.outcome;
  seconds : float;  (** host time of [run_experiment_from] *)
  restore_s : float;  (** its "exec/restore" span *)
  instrs : int;  (** simulated instructions after the snapshot *)
  minor_words : float;
}

type replayed = {
  golden : Cpu.Machine.result;
  snapshots : Cpu.Machine.snapshot array;
  snapshot_s : float;  (** the golden run's "golden/snapshot" span *)
  runs : experiment list;  (** every experiment executed, redraws included *)
  stats : Fault.stats;
  not_reached : int;
}

let span_wall rows path =
  List.fold_left (fun acc r -> if r.Obs.Span.path = path then acc +. r.Obs.Span.wall else acc)
    0.0 rows

(* One campaign, one call at a time on the calling domain: golden capture,
   plan, then every experiment in plan order with redraw rounds for
   unreached sites, as {!Campaign.run} schedules them. *)
let replay ?tr (c : t) ~seed ~n (spec : Fault.run_spec) : replayed =
  let rec_golden = Obs.Span.make () in
  let golden, snapshots =
    Trace.span tr "fault.golden_capture" (fun () ->
        Fault.golden_capture ~spans:rec_golden spec)
  in
  let snapshot_s = span_wall (Obs.Span.rows rec_golden) "golden/snapshot" in
  Trace.attach tr ~parent:"fault.golden_capture" "cpu.snapshot" snapshot_s;
  let exps, redraw = Trace.span tr "campaign.plan" (fun () -> plan c ~seed ~n golden) in
  let max_instrs = Fault.hang_budget ~golden spec in
  let runs = ref [] and stats = ref Fault.empty_stats and not_reached = ref 0 in
  let pending = ref (Array.to_list exps) and round = ref 0 in
  while !pending <> [] do
    let next = ref [] in
    List.iter
      (fun e ->
        let rec_exp = Obs.Span.make () in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r =
          Trace.span tr "fault.run_experiment_from" (fun () ->
              Fault.run_experiment_from ~max_instrs ~spans:rec_exp ~snapshots spec e)
        in
        let seconds = Unix.gettimeofday () -. t0 in
        let minor_words = Gc.minor_words () -. w0 in
        let restore_s = span_wall (Obs.Span.rows rec_exp) "exec/restore" in
        Trace.attach tr ~parent:"fault.run_experiment_from" "cpu.restore" restore_s;
        let outcome = Fault.classify ~golden r in
        runs :=
          { outcome; seconds; restore_s; instrs = exec_instrs snapshots e r; minor_words }
          :: !runs;
        match outcome with
        | Fault.Not_reached ->
            incr not_reached;
            if !round < max_rounds - 1 then next := redraw () :: !next
        | o -> stats := Fault.add_outcome !stats o)
      !pending;
    pending := List.rev !next;
    incr round
  done;
  {
    golden;
    snapshots;
    snapshot_s;
    runs = List.rev !runs;
    stats = !stats;
    not_reached = !not_reached;
  }
