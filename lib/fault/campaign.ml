(** Parallel, deterministic fault-injection campaign engine (paper §IV-B).

    The paper's evaluation runs thousands of independent single-run
    experiments per benchmark; every experiment re-executes the whole
    workload on the simulated machine, which makes campaigns the slowest
    part of the bench suite.  Experiments are mutually independent, so —
    like the SDE/gdb harness the paper scripts around, and like RepTFD's
    campaign driver — they fan out over a pool of workers, here OCaml 5
    domains.

    Determinism: the full experiment list is pre-drawn from the seeded RNG
    before any worker starts, and outcomes are folded back in plan order,
    so the resulting statistics are bit-identical regardless of the worker
    count.  Experiments whose injection site is never reached
    ({!Fault.Not_reached}) carry no information; they are discarded and
    replaced with fresh draws from the same RNG stream (in plan-slot
    order, preserving determinism), as the paper's campaign does.

    Observability: per-outcome running counters and an ETA are pushed to
    an optional progress callback, and the report totals wall-clock time
    and simulated cycles.  Campaigns can checkpoint completed experiments
    to a file and resume after an interruption instead of restarting.

    Supervision: every experiment runs under {!Supervisor} — host
    exceptions are retried then quarantined, an exception that kills a
    worker requeues (then quarantines) its slot while the worker carries
    on, and an external [cancel] flag stops the campaign at the next
    quantum boundary (the checkpoint survives for a later resume).
    Quarantined experiments are excluded from the statistics and reported
    separately.  Nothing here reads a clock to decide anything: runaway
    runs end as [Hang] outcomes at {!Fault.hang_budget}, so the results
    depend only on workload, build, seed and plan. *)

(* ---- sizing ---- *)

(* Worker-pool width when the caller does not pin one. *)
let default_jobs () = Domain.recommended_domain_count ()

(* A Not_reached replacement can itself be Not_reached; give up redrawing
   after this many rounds and report the leftovers as discarded. *)
let max_rounds = 8

(* Completed experiments between two checkpoint writes. *)
let save_every = 32

(* ---- experiment drawing (one RNG, fixed draw order) ---- *)

let draw_single (rng : Random.State.t) ~(sites : int) : Fault.experiment =
  let at = 1 + Random.State.int rng sites in
  let lane = Random.State.int rng 32 in
  let bit = Random.State.int rng 64 in
  { Fault.at; lane; bit; second = None; kind = Cpu.Machine.Reg_flip }

(* The second lane is drawn at a non-zero offset from the first; the final
   non-aliasing guarantee (for any destination lane count) is enforced at
   injection time by {!Cpu.Machine.second_flip}. *)
let draw_double ?(same_bit = true) (rng : Random.State.t) ~(sites : int) : Fault.experiment =
  let at = 1 + Random.State.int rng sites in
  let lane = Random.State.int rng 32 in
  let lane2 = lane + 1 + Random.State.int rng 3 in
  let bit = Random.State.int rng 64 in
  let bit2 = if same_bit then bit else Random.State.int rng 64 in
  { Fault.at; lane; bit; second = Some (lane2, bit2); kind = Cpu.Machine.Reg_flip }

(* One draw under a fault model.  Every branch consumes the same RNG
   stream in a fixed order, so a plan is reproducible from (seed, golden
   site counts) alone.  [Mixed] first picks a kind uniformly among those
   with at least one site, then draws that kind's experiment. *)
let draw_model (rng : Random.State.t) ~(model : Fault.model) ~(sites : int)
    ~(mem_sites : int) ~(branch_sites : int) : Fault.experiment =
  let draw_kind (kind : Cpu.Machine.fault_kind) : Fault.experiment =
    match kind with
    | Cpu.Machine.Reg_flip -> draw_single rng ~sites
    | Cpu.Machine.Mem_flip ->
        let at = 1 + Random.State.int rng (max 1 mem_sites) in
        let bit = Random.State.int rng 64 in
        { Fault.at; lane = 0; bit; second = None; kind = Cpu.Machine.Mem_flip }
    | Cpu.Machine.Addr_flip ->
        let at = 1 + Random.State.int rng (max 1 mem_sites) in
        (* low 21 address bits: higher flips almost always segfault
           immediately and teach nothing about the checks *)
        let bit = Random.State.int rng 21 in
        { Fault.at; lane = 0; bit; second = None; kind = Cpu.Machine.Addr_flip }
    | Cpu.Machine.Branch_flip ->
        let at = 1 + Random.State.int rng (max 1 branch_sites) in
        { Fault.at; lane = 0; bit = 0; second = None; kind = Cpu.Machine.Branch_flip }
  in
  match model with
  | Fault.Reg -> draw_kind Cpu.Machine.Reg_flip
  | Fault.Mem -> draw_kind Cpu.Machine.Mem_flip
  | Fault.Addr -> draw_kind Cpu.Machine.Addr_flip
  | Fault.Cf -> draw_kind Cpu.Machine.Branch_flip
  | Fault.Mixed ->
      let kinds =
        List.filter_map
          (fun (k, s) -> if s > 0 then Some k else None)
          [
            (Cpu.Machine.Reg_flip, sites);
            (Cpu.Machine.Mem_flip, mem_sites);
            (Cpu.Machine.Addr_flip, mem_sites);
            (Cpu.Machine.Branch_flip, branch_sites);
          ]
      in
      let kinds = if kinds = [] then [ Cpu.Machine.Reg_flip ] else kinds in
      draw_kind (List.nth kinds (Random.State.int rng (List.length kinds)))

(* ---- progress and reporting ---- *)

type progress = {
  completed : int;  (** experiments finished, including redraws *)
  total : int;  (** experiments currently planned, including redraws *)
  restored : int;  (** completed experiments replayed from a checkpoint *)
  elapsed : float;  (** seconds since the campaign started *)
  eta : float;  (** estimated seconds to completion; [nan] until a rate exists *)
  running : Fault.stats;  (** per-outcome running counters *)
  not_reached : int;  (** discarded so far *)
  quarantined : int;  (** experiments given up on by the supervisor *)
}

type report = {
  stats : Fault.stats;
  outcomes : (Fault.experiment * Fault.obs) array;
      (** counted experiments in plan order (excludes discarded ones) *)
  wall_seconds : float;
  cycles_simulated : int;  (** simulated cycles over all injection runs *)
  experiments_run : int;  (** injection runs executed, including redraws *)
  restored : int;  (** experiments replayed from the checkpoint *)
  not_reached : int;  (** runs discarded because the site was not reached *)
  quarantined : Supervisor.tool_error list;
      (** supervisor-quarantined experiments, in plan-slot order; excluded
          from [stats]/[outcomes] *)
  worker_deaths : int;  (** exceptions that escaped an experiment into the pool *)
  interrupted : bool;  (** cancelled before every experiment completed *)
  jobs : int;
  spans : Obs.Span.row list;  (** where the campaign's wall time went *)
}

(* ---- checkpointing ---- *)

(* A checkpoint maps (redraw round, plan slot) to what the campaign
   learned about that slot — an observation, or a quarantine record for a
   slot the supervisor gave up on (so a resume never re-executes a
   known-poison plan).  It is keyed by a digest of the plan + golden run
   so a stale file for a different campaign can never be resumed.  The
   format is append-friendly: a magic line, the key, then one marshalled
   record per completed experiment — a save appends only the records since
   the previous one (O(total) bytes over a whole campaign instead of
   O(total²)) and a crash mid-append costs at most the truncated tail
   record.  The magic line guards the unsafe [Marshal.from_channel]
   against files in older formats (or other files altogether); it changes
   whenever a marshalled type does — [Marshal] decodes constant
   constructors by index, so a renumbered variant must never be read. *)

let ck_magic = "ELZCK5\n"

type ck_record =
  | Ck_obs of (int * int) * Fault.obs
  | Ck_poison of (int * int) * Supervisor.tool_error

let ck_key ~(golden : Cpu.Machine.result) (exps : Fault.experiment array) : string =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( exps,
            golden.Cpu.Machine.output_digest,
            golden.Cpu.Machine.inject_sites,
            golden.Cpu.Machine.mem_sites,
            golden.Cpu.Machine.branch_sites )
          []))

(* Loads a checkpoint: the restored observations and quarantine records
   plus, when the header is valid for this campaign, the byte offset just
   past the last complete record — the writer truncates there and appends,
   so a tail truncated by a crash can never corrupt a later resume. *)
let ck_load (path : string) ~(key : string) :
    ((int * int), Fault.obs) Hashtbl.t
    * ((int * int), Supervisor.tool_error) Hashtbl.t
    * int option =
  let tbl = Hashtbl.create 64 in
  let ptbl = Hashtbl.create 8 in
  let resume_at = ref None in
  (if Sys.file_exists path then
     try
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let magic = really_input_string ic (String.length ck_magic) in
           if magic <> ck_magic then failwith "bad magic";
           let k = really_input_string ic (String.length key + 1) in
           if k <> key ^ "\n" then failwith "stale key";
           resume_at := Some (pos_in ic);
           (* replay records until EOF; a partial tail record (crash
              mid-append) just ends the replay, keeping everything before *)
           try
             while true do
               (match (Marshal.from_channel ic : ck_record) with
               | Ck_obs (k, v) -> Hashtbl.replace tbl k v
               | Ck_poison (k, te) -> Hashtbl.replace ptbl k te);
               resume_at := Some (pos_in ic)
             done
           with _ -> ())
     with _ ->
       if !resume_at = None then
         (* unreadable/corrupt/stale checkpoint: say so once and start over *)
         Printf.eprintf
           "campaign: checkpoint %s unreadable or stale, restarting campaign\n%!" path);
  (tbl, ptbl, !resume_at)

(* The writer owns the checkpoint channel for the whole campaign.  Its
   mutex serializes appends among workers without touching the campaign
   lock; a failed write warns once on stderr and disables checkpointing
   for the rest of the campaign instead of failing silently. *)
type ck_writer = {
  w_path : string;
  w_io : Mutex.t;
  mutable w_oc : out_channel option;
  mutable w_warned : bool;
}

let ck_warn (w : ck_writer) (msg : string) =
  if not w.w_warned then begin
    w.w_warned <- true;
    Printf.eprintf
      "campaign: checkpoint %s not written (%s), continuing without checkpointing\n%!"
      w.w_path msg
  end

let ck_open (path : string) ~(key : string) (resume_at : int option) : ck_writer =
  let w = { w_path = path; w_io = Mutex.create (); w_oc = None; w_warned = false } in
  (try
     match resume_at with
     | Some pos ->
         (* resuming: drop any truncated tail record, then append *)
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () -> Unix.ftruncate fd pos);
         w.w_oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path)
     | None ->
         let oc =
           open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path
         in
         output_string oc ck_magic;
         output_string oc (key ^ "\n");
         flush oc;
         w.w_oc <- Some oc
   with
  | Sys_error msg -> ck_warn w msg
  | Unix.Unix_error (e, _, _) -> ck_warn w (Unix.error_message e));
  w

(* Appends a batch of records ([recs] is newest-first) and makes them
   durable.  Runs outside the campaign mutex: only appenders contend on
   [w_io], workers keep claiming experiments meanwhile. *)
let ck_append (w : ck_writer) ~(spans : Obs.Span.t) (recs : ck_record list) : unit =
  Mutex.protect w.w_io (fun () ->
      match w.w_oc with
      | None -> ()
      | Some oc -> (
          try
            Obs.Span.time spans "exec/checkpoint" (fun () ->
                List.iter
                  (fun (r : ck_record) -> Marshal.to_channel oc r [])
                  (List.rev recs);
                flush oc;
                Unix.fsync (Unix.descr_of_out_channel oc))
          with
          | Sys_error msg ->
              close_out_noerr oc;
              w.w_oc <- None;
              ck_warn w msg
          | Unix.Unix_error (e, _, _) ->
              close_out_noerr oc;
              w.w_oc <- None;
              ck_warn w (Unix.error_message e)))

let ck_close (w : ck_writer) : unit =
  Mutex.protect w.w_io (fun () ->
      (match w.w_oc with Some oc -> close_out_noerr oc | None -> ());
      w.w_oc <- None)

(* ---- the engine ---- *)

(* Mutable campaign-wide state, shared by the workers under [mutex]. *)
type shared = {
  mutex : Mutex.t;
  t0 : float;
  mutable completed : int;
  mutable total : int;
  mutable running : Fault.stats;
  mutable nreach : int;
  mutable cycles : int;
  mutable executed : int;  (** completed minus checkpoint-restored/quarantined *)
  mutable restored : int;  (** completed experiments replayed from the checkpoint *)
  mutable quarantined : int;  (** experiments the supervisor gave up on *)
  mutable ck_pending : ck_record list;
      (** records since the last checkpoint append, newest first *)
  mutable since_save : int;
  mutable progress_warned : bool;  (** progress callback raised at least once *)
}

(* What one batch slot produced.  [C_none] marks a slot that was never
   executed — the campaign was cancelled before a worker got to it (or
   mid-run); the slot stays absent from outcomes and the checkpoint, so a
   resume re-executes it. *)
type cell =
  | C_none
  | C_obs of Fault.obs
  | C_poison of Supervisor.tool_error

(* Runs one batch of (plan slot, experiment) pairs over [jobs] workers:
   the calling domain runs worker 0 and [jobs - 1] domains are spawned
   (none at [jobs = 1]).  Each worker builds its own machines
   ({!Fault.run_experiment} creates a fresh one per run); the only shared
   mutable state is the claim counter, the requeue list, the
   disjointly-indexed output array and [shared] under its mutex.  Returns
   the cells in batch order.

   An OCaml domain can only die from an exception escaping its function,
   so the pool's death detection is a handler around each slot: an
   exception escaping an experiment (a chaos kill, or a host failure
   outside {!Supervisor.supervised_run}) counts a worker death and
   requeues the slot — re-executed up to the supervisor's retry budget,
   then quarantined as [Worker_death] — and the worker keeps claiming. *)
let run_batch ~(jobs : int) ~(spec : Fault.run_spec) ~(golden : Cpu.Machine.result)
    ~(snapshots : Cpu.Machine.snapshot array) ~(max_instrs : int) ~(round : int)
    ~ck_tbl ~ck_poison ~(writer : ck_writer option) ~(spans : Obs.Span.t)
    ~(shared : shared) ~(progress : (progress -> unit) option)
    ~(sup : Supervisor.config) ~(chaos : Supervisor.chaos_plan)
    ~(cancel : bool Atomic.t) ~(deaths : int Atomic.t)
    (batch : (int * Fault.experiment) array) : cell array =
  let k = Array.length batch in
  let out = Array.make k C_none in
  let next = Atomic.make 0 in
  let jobs = max 1 (min jobs k) in
  let rq_lock = Mutex.create () in
  let requeued = ref [] in
  let death_tries : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let claim () =
    match
      Mutex.protect rq_lock (fun () ->
          match !requeued with
          | [] -> None
          | i :: tl ->
              requeued := tl;
              Some i)
    with
    | Some _ as r -> r
    | None ->
        let i = Atomic.fetch_and_add next 1 in
        if i < k then Some i else None
  in
  (* Folds one finished slot into the shared state, snapshots progress for
     the callback, and returns any checkpoint records due for an append
     (performed by the caller OUTSIDE the mutex). *)
  let record ~(slot : int) ~(fresh : bool) (c : cell) : ck_record list option =
    Mutex.lock shared.mutex;
    shared.completed <- shared.completed + 1;
    (match c with
    | C_obs o ->
        shared.cycles <- shared.cycles + o.Fault.o_cycles;
        if fresh then shared.executed <- shared.executed + 1
        else shared.restored <- shared.restored + 1;
        (match o.Fault.o_outcome with
        | Fault.Not_reached -> shared.nreach <- shared.nreach + 1
        | oc -> shared.running <- Fault.add_outcome shared.running oc)
    | C_poison _ ->
        shared.quarantined <- shared.quarantined + 1;
        if not fresh then shared.restored <- shared.restored + 1
    | C_none -> assert false);
    (* restored records are already in the file; only fresh ones queue for
       the next append *)
    let flush_recs =
      match writer with
      | Some _ when fresh ->
          let r =
            match c with
            | C_obs o -> Ck_obs ((round, slot), o)
            | C_poison te -> Ck_poison ((round, slot), te)
            | C_none -> assert false
          in
          shared.ck_pending <- r :: shared.ck_pending;
          shared.since_save <- shared.since_save + 1;
          if shared.since_save >= save_every then begin
            shared.since_save <- 0;
            let recs = shared.ck_pending in
            shared.ck_pending <- [];
            Some recs
          end
          else None
      | _ -> None
    in
    (match progress with
    | None -> ()
    | Some f -> (
        let elapsed = Unix.gettimeofday () -. shared.t0 in
        (* rate over actually-executed runs only: checkpoint-restored
           experiments complete instantly, and folding them into the rate
           made a resumed campaign's ETA wildly optimistic.  Until at
           least one run has executed there is no rate at all: the ETA is
           [nan] (render it as unknown), not a garbage extrapolation from
           the restore-replay speed. *)
        let eta =
          if shared.executed = 0 then Float.nan
          else
            elapsed /. float_of_int shared.executed
            *. float_of_int (max 0 (shared.total - shared.completed))
        in
        let p =
          {
            completed = shared.completed;
            total = shared.total;
            restored = shared.restored;
            elapsed;
            eta;
            running = shared.running;
            not_reached = shared.nreach;
            quarantined = shared.quarantined;
          }
        in
        (* the progress callback stays inside the critical section (it
           must see a consistent snapshot) but is exception-safe: a
           raising callback must not kill a worker mid-campaign, so it
           warns once and the campaign carries on *)
        try f p
        with exn ->
          if not shared.progress_warned then begin
            shared.progress_warned <- true;
            Printf.eprintf "campaign: progress callback raised %s, continuing\n%!"
              (Printexc.to_string exn)
          end));
    Mutex.unlock shared.mutex;
    flush_recs
  in
  let finish ~slot ~fresh c =
    let flush_recs = record ~slot ~fresh c in
    (* checkpoint I/O happens OUTSIDE the campaign mutex: the fsync only
       blocks other appenders (on the writer's own lock), not every worker
       trying to record a result *)
    match (flush_recs, writer) with
    | Some recs, Some w -> ck_append w ~spans recs
    | _ -> ()
  in
  (* What slot [i] yields: restored from the checkpoint, or executed. *)
  let execute i : bool * cell =
    let slot, e = batch.(i) in
    match Hashtbl.find_opt ck_tbl (round, slot) with
    | Some o -> (false, C_obs o)
    | None -> (
        match Hashtbl.find_opt ck_poison (round, slot) with
        | Some te ->
            (* known-poison plan from a previous attempt: never re-execute it *)
            (false, C_poison te)
        | None -> (
            match
              Supervisor.supervised_run sup ~cancel ~round ~slot ~chaos ~max_instrs
                ~snapshots ~spans spec e
            with
            | Supervisor.V_ok r -> (true, C_obs (Fault.observe ~golden r))
            | Supervisor.V_quarantined te -> (true, C_poison te)
            | Supervisor.V_cancelled -> (true, C_none)))
  in
  let died i =
    Atomic.incr deaths;
    let slot, _ = batch.(i) in
    let tries =
      Mutex.protect rq_lock (fun () ->
          let tries = Option.value ~default:0 (Hashtbl.find_opt death_tries i) + 1 in
          Hashtbl.replace death_tries i tries;
          if tries <= sup.Supervisor.retries then requeued := i :: !requeued;
          tries)
    in
    if tries > sup.Supervisor.retries then begin
      let te =
        {
          Supervisor.te_round = round;
          te_slot = slot;
          te_kind = Supervisor.Worker_death;
          te_attempts = tries;
          te_detail = "worker died while running this experiment";
          te_backtrace = "";
        }
      in
      out.(i) <- C_poison te;
      finish ~slot ~fresh:true (C_poison te)
    end
  in
  let rec worker () =
    if not (Atomic.get cancel) then
      match claim () with
      | None -> ()
      | Some i ->
          (match execute i with
          | _, C_none -> ()  (* cancelled mid-run: slot stays unexecuted *)
          | fresh, c ->
              out.(i) <- c;
              finish ~slot:(fst batch.(i)) ~fresh c
          | exception _ -> died i);
          worker ()
  in
  let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join helpers;
  out

(** Runs a pre-drawn experiment list.  [redraw] supplies replacements for
    [Not_reached] experiments (drawn between rounds, on the calling
    domain, in plan-slot order — deterministic for any [jobs]); without it
    they are simply discarded.  [checkpoint] names a file used to persist
    and resume partial campaigns.  [snapshots] (a {!Fault.golden_capture}
    array) enables snapshot fast-forward: each experiment resumes from the
    latest golden snapshot preceding its injection site instead of
    replaying the whole fault-free prefix — outcomes are bit-identical
    either way.  Every experiment runs under a {!Supervisor} configured by
    [supervise]; [chaos] (test-only) injects harness failures; [cancel]
    stops the campaign at the next quantum boundary. *)
let run ?jobs ?progress ?checkpoint ?redraw ?(snapshots = [||]) ?recorder
    ?(supervise = Supervisor.default) ?(chaos = []) ?cancel ~(spec : Fault.run_spec)
    ~(golden : Cpu.Machine.result) (exps : Fault.experiment array) : report =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length exps in
  let max_instrs = Fault.hang_budget ~golden spec in
  let key = ck_key ~golden exps in
  let spans = match recorder with Some r -> r | None -> Obs.Span.make () in
  let cancel = match cancel with Some c -> c | None -> Atomic.make false in
  let deaths = Atomic.make 0 in
  (* quarantine records carry the raising exception's backtrace; without
     this they would all be empty *)
  Printexc.record_backtrace true;
  let shared =
    {
      mutex = Mutex.create ();
      t0 = Unix.gettimeofday ();
      completed = 0;
      total = n;
      running = Fault.empty_stats;
      nreach = 0;
      cycles = 0;
      executed = 0;
      restored = 0;
      quarantined = 0;
      ck_pending = [];
      since_save = 0;
      progress_warned = false;
    }
  in
  (* the whole batch-execution phase — including checkpoint load/replay
     and the final fold — runs under the "exec" span *)
  let outcomes, quarantined =
    Obs.Span.time spans "exec" (fun () ->
        let ck_tbl, ck_poison, resume_at =
          match checkpoint with
          | Some path -> ck_load path ~key
          | None -> (Hashtbl.create 1, Hashtbl.create 1, None)
        in
        let writer =
          Option.map (fun path -> ck_open path ~key resume_at) checkpoint
        in
        (* an interrupted campaign must keep its checkpoint (that is
           the point of having one) — with every buffered record
           flushed, and no dangling open channel *)
        Fun.protect
          ~finally:(fun () ->
            match writer with
            | None -> ()
            | Some w ->
                let recs =
                  Mutex.protect shared.mutex (fun () ->
                      let r = shared.ck_pending in
                      shared.ck_pending <- [];
                      shared.since_save <- 0;
                      r)
                in
                if recs <> [] then ck_append w ~spans recs;
                ck_close w)
          (fun () ->
            let final = Array.make n None in
            let poison = Array.make n None in
            let pending = ref (Array.mapi (fun i e -> (i, e)) exps) in
            let round = ref 0 in
            while Array.length !pending > 0 && not (Atomic.get cancel) do
              let batch = !pending in
              let cells =
                run_batch ~jobs ~spec ~golden ~snapshots ~max_instrs
                  ~round:!round ~ck_tbl ~ck_poison ~writer ~spans ~shared
                  ~progress ~sup:supervise ~chaos ~cancel ~deaths batch
              in
              let next = ref [] in
              (* batch is in ascending plan-slot order (invariant
                 below), so redraws happen in slot order: the RNG
                 consumption is reproducible *)
              Array.iteri
                (fun i (c : cell) ->
                  let slot, e = batch.(i) in
                  match c with
                  | C_obs o -> (
                      match o.Fault.o_outcome with
                      | Fault.Not_reached ->
                          if !round < max_rounds - 1 then begin
                            match redraw with
                            | Some d -> next := (slot, d ()) :: !next
                            | None -> ()
                          end
                      | _ -> final.(slot) <- Some (e, o))
                  | C_poison te -> poison.(slot) <- Some te
                  | C_none -> ())
                cells;
              pending := Array.of_list (List.rev !next);
              if !pending <> [||] then
                Mutex.protect shared.mutex (fun () ->
                    shared.total <- shared.total + Array.length !pending);
              incr round
            done;
            ( Array.of_list (List.filter_map (fun x -> x) (Array.to_list final)),
              List.filter_map (fun x -> x) (Array.to_list poison) )))
  in
  let interrupted = Atomic.get cancel && shared.completed < shared.total in
  (match checkpoint with
  | Some path ->
      if (not interrupted) && Sys.file_exists path then (
        try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  Obs.Span.add_cycles spans "exec" shared.cycles;
  let stats =
    Array.fold_left
      (fun s (_, o) -> Fault.add_outcome s o.Fault.o_outcome)
      Fault.empty_stats outcomes
  in
  {
    stats;
    outcomes;
    wall_seconds = Unix.gettimeofday () -. shared.t0;
    cycles_simulated = shared.cycles;
    experiments_run = shared.executed;
    restored = shared.restored;
    not_reached = shared.nreach;
    quarantined;
    worker_deaths = Atomic.get deaths;
    interrupted;
    jobs;
    spans = Obs.Span.rows spans;
  }

(* ---- whole campaigns (the paper's Fig. 13 / §III-C experiments) ---- *)

let plan ~(n : int) (draw : unit -> Fault.experiment) : Fault.experiment array =
  (* explicit loop: Array.init's evaluation order is unspecified and the
     draws must consume the RNG in plan order *)
  let exps =
    Array.make n
      { Fault.at = 1; lane = 0; bit = 0; second = None; kind = Cpu.Machine.Reg_flip }
  in
  for i = 0 to n - 1 do
    exps.(i) <- draw ()
  done;
  exps

(* Golden run of a campaign: with fast-forward on, also capture the
   snapshot chain every injection run will restore from.  Timed under the
   "golden" span (snapshot captures additionally under "golden/snapshot"),
   with the golden run's simulated cycles attributed to it. *)
let campaign_golden ?spans ~(fast_forward : bool) (spec : Fault.run_spec) :
    Cpu.Machine.result * Cpu.Machine.snapshot array =
  let timed f = match spans with None -> f () | Some r -> Obs.Span.time r "golden" f in
  let g, snapshots =
    timed (fun () ->
        if fast_forward then Fault.golden_capture ?spans spec
        else (Fault.golden spec, [||]))
  in
  (match spans with
  | Some r -> Obs.Span.add_cycles r "golden" g.Cpu.Machine.wall_cycles
  | None -> ());
  (g, snapshots)

(* A full campaign of [n] independent single-bit injections. *)
let single ?(seed = 42) ?(n = 300) ?jobs ?progress ?checkpoint ?(fast_forward = true)
    ?supervise ?chaos ?cancel (spec : Fault.run_spec) : report =
  let recorder = Obs.Span.make () in
  let g, snapshots = campaign_golden ~spans:recorder ~fast_forward spec in
  let sites = g.Cpu.Machine.inject_sites in
  if sites = 0 then invalid_arg "Campaign.single: no hardened code to inject into";
  let rng = Random.State.make [| seed |] in
  let draw () = draw_single rng ~sites in
  let exps = Obs.Span.time recorder "plan" (fun () -> plan ~n draw) in
  run ?jobs ?progress ?checkpoint ?supervise ?chaos ?cancel ~snapshots ~recorder
    ~redraw:draw ~spec ~golden:g exps

(* Campaign of double-bit faults; [same_bit] flips the same bit in two
   different lanes (two replicas agreeing on a wrong value). *)
let double ?(seed = 43) ?(n = 150) ?(same_bit = true) ?jobs ?progress ?checkpoint
    ?(fast_forward = true) ?supervise ?chaos ?cancel (spec : Fault.run_spec) : report =
  let recorder = Obs.Span.make () in
  let g, snapshots = campaign_golden ~spans:recorder ~fast_forward spec in
  let sites = g.Cpu.Machine.inject_sites in
  if sites = 0 then invalid_arg "Campaign.double: no hardened code to inject into";
  let rng = Random.State.make [| seed |] in
  let draw () = draw_double ~same_bit rng ~sites in
  let exps = Obs.Span.time recorder "plan" (fun () -> plan ~n draw) in
  run ?jobs ?progress ?checkpoint ?supervise ?chaos ?cancel ~snapshots ~recorder
    ~redraw:draw ~spec ~golden:g exps

(* Campaign under a fault-model axis: reg (same as {!single}), mem, addr,
   cf, or mixed.  The site streams come from the golden run's counters;
   models whose stream is empty for this build (e.g. cf on a branch-free
   kernel) are rejected up front rather than silently degenerating. *)
let model_campaign ?(seed = 44) ?(n = 300) ?jobs ?progress ?checkpoint
    ?(fast_forward = true) ?supervise ?chaos ?cancel ~(model : Fault.model)
    (spec : Fault.run_spec) : report =
  let recorder = Obs.Span.make () in
  let g, snapshots = campaign_golden ~spans:recorder ~fast_forward spec in
  let sites = g.Cpu.Machine.inject_sites in
  let mem_sites = g.Cpu.Machine.mem_sites in
  let branch_sites = g.Cpu.Machine.branch_sites in
  (match model with
  | Fault.Reg | Fault.Mixed ->
      if sites = 0 then
        invalid_arg "Campaign.model_campaign: no hardened code to inject into"
  | Fault.Mem | Fault.Addr ->
      if mem_sites = 0 then
        invalid_arg "Campaign.model_campaign: no hardened memory accesses"
  | Fault.Cf ->
      if branch_sites = 0 then
        invalid_arg "Campaign.model_campaign: no hardened conditional branches");
  let rng = Random.State.make [| seed; Hashtbl.hash (Fault.model_to_string model) |] in
  let draw () = draw_model rng ~model ~sites ~mem_sites ~branch_sites in
  let exps = Obs.Span.time recorder "plan" (fun () -> plan ~n draw) in
  run ?jobs ?progress ?checkpoint ?supervise ?chaos ?cancel ~snapshots ~recorder
    ~redraw:draw ~spec ~golden:g exps

(* One-line observability summary for bench tables. *)
let pp_totals fmt (r : report) =
  Format.fprintf fmt "%d runs, %.1fs wall, %.2f Gcycles simulated, %d jobs%s%s%s%s%s"
    r.experiments_run r.wall_seconds
    (float_of_int r.cycles_simulated /. 1e9)
    r.jobs
    (if r.restored > 0 then Printf.sprintf ", %d restored from checkpoint" r.restored else "")
    (if r.not_reached > 0 then Printf.sprintf ", %d not-reached redrawn" r.not_reached else "")
    (if r.quarantined <> [] then
       Printf.sprintf ", %d quarantined" (List.length r.quarantined)
     else "")
    (if r.worker_deaths > 0 then Printf.sprintf ", %d worker deaths" r.worker_deaths
     else "")
    (if r.interrupted then ", interrupted" else "")
