(** Parallel, deterministic fault-injection campaign engine (§IV-B).

    Pre-draws the full experiment list from a seeded RNG, fans the
    experiments out over a pool of OCaml 5 domains (each worker builds its
    own simulated machines), folds outcomes back in plan order — so for a
    fixed seed the statistics are bit-identical for any worker count —
    and discards-and-redraws experiments whose injection site was never
    reached.  Supports running-counter/ETA progress reporting,
    checkpoint/resume of interrupted campaigns, and supervised execution
    ({!Supervisor}): retry/quarantine of host failures and worker deaths,
    and cooperative cancellation. *)

(** [Domain.recommended_domain_count ()]: the pool width used when [jobs]
    is not given. *)
val default_jobs : unit -> int

(** Draw one single-bit experiment: site uniform in [1, sites], lane in
    [0, 32), bit in [0, 64). *)
val draw_single : Random.State.t -> sites:int -> Fault.experiment

(** Draw one double-bit experiment (same destination register).  The
    second lane is drawn at a non-zero offset from the first;
    {!Cpu.Machine.second_flip} guarantees the pair cannot alias (and
    cancel) after the wrap to the destination's actual lane count. *)
val draw_double : ?same_bit:bool -> Random.State.t -> sites:int -> Fault.experiment

(** Draw one experiment under a fault model, against the golden run's
    site streams ([sites] = injection-eligible instructions, [mem_sites] =
    hardened memory accesses, [branch_sites] = hardened conditional
    branches).  Every branch consumes the RNG in a fixed order, so a plan
    is reproducible from (seed, site counts) alone. *)
val draw_model :
  Random.State.t ->
  model:Fault.model ->
  sites:int ->
  mem_sites:int ->
  branch_sites:int ->
  Fault.experiment

type progress = {
  completed : int;  (** experiments finished, including redraws *)
  total : int;  (** experiments currently planned, including redraws *)
  restored : int;
      (** of [completed], how many were replayed from a checkpoint rather
          than executed — they finish instantly, so [eta] is computed from
          the executed-only rate *)
  elapsed : float;  (** seconds since the campaign started *)
  eta : float;
      (** estimated seconds to completion.  [nan] while no experiment has
          actually executed yet (e.g. the checkpoint-replay prefix of a
          resumed campaign): there is no execution rate to extrapolate
          from, and callers should render the ETA as unknown. *)
  running : Fault.stats;  (** per-outcome running counters *)
  not_reached : int;  (** discarded so far *)
  quarantined : int;
      (** experiments the supervisor gave up on *)
}

type report = {
  stats : Fault.stats;
  outcomes : (Fault.experiment * Fault.obs) array;
      (** counted experiments in plan order (excludes discarded ones);
          the observations feed {!Fault.avf_table} and
          {!Fault.mean_latency} *)
  wall_seconds : float;
  cycles_simulated : int;  (** simulated cycles over all injection runs *)
  experiments_run : int;  (** injection runs executed, including redraws *)
  restored : int;  (** experiments replayed from the checkpoint *)
  not_reached : int;  (** runs discarded because the site was not reached *)
  quarantined : Supervisor.tool_error list;
      (** experiments the supervisor quarantined (host exception on every
          retry, repeated worker death), in plan-slot order.  Excluded
          from [stats]/[outcomes]: supervision may shrink the sample,
          never skew it.  Persisted in the checkpoint, so a resumed
          campaign never re-executes them. *)
  worker_deaths : int;
      (** exceptions that escaped an experiment into the pool's
          worker-death handler (the worker carried on) *)
  interrupted : bool;
      (** the [cancel] flag stopped the campaign before every planned
          experiment completed; the checkpoint file (if any) was kept for
          a resume *)
  jobs : int;
  spans : Obs.Span.row list;
      (** phase spans: where the campaign's wall time went.  Top-level
          phases ("golden", "plan", "exec") tile the campaign; nested
          regions ("golden/snapshot", "exec/restore", "exec/checkpoint")
          break down captures, fast-forward restores and checkpoint I/O.
          Wall times (and [worker_deaths]/[interrupted]) are
          non-deterministic; everything else in the report above is
          bit-identical for any worker count, for the experiments that
          completed. *)
}

(** [run ?jobs ?progress ?checkpoint ?redraw ~spec ~golden exps] runs a
    pre-drawn experiment list and returns the campaign report.

    - [jobs]: worker count (default {!default_jobs}).  The calling
      domain runs one worker and [jobs - 1] domains are spawned, so [1]
      runs serially on the calling domain.
    - [progress]: called after every completed experiment, serialized
      under the engine lock.  Exception-safe: a raising callback warns
      once on stderr and the campaign carries on.
    - [checkpoint]: file used to persist completed experiments every few
      runs; if it already holds results for this exact campaign (plan +
      golden run), they are restored instead of re-executed, and the file
      is removed once the campaign completes (kept when [interrupted]).
    - [redraw]: supplies replacement experiments for [Not_reached] runs;
      called between rounds on the calling domain in plan-slot order, so
      RNG-based redraws stay deterministic.  Without it, unreached
      experiments are discarded.
    - [snapshots]: a {!Fault.golden_capture} snapshot chain enabling
      fast-forward — each experiment restores the latest golden snapshot
      preceding its injection site instead of replaying the fault-free
      prefix.  Outcomes, and hence the report, are bit-identical with or
      without it, for any worker count.
    - [recorder]: a span recorder to fold the execution phases into
      (campaign entry points pass the one that already timed their golden
      and planning phases); without it a fresh recorder covers just this
      call.  Either way the rows end up in [report.spans].
    - [supervise]: the {!Supervisor} configuration every experiment runs
      under (default {!Supervisor.default}) — host exceptions are retried
      then quarantined; an exception that escapes an experiment and would
      kill its worker requeues the slot (quarantined as [Worker_death]
      after [retries] requeues) and the worker carries on.
    - [chaos]: test-only harness-failure injection plan.
    - [cancel]: cooperative cancellation flag.  Once set (e.g. from a
      signal handler), in-flight experiments are aborted at the next
      quantum boundary, no new ones start, and the report comes back with
      [interrupted = true]. *)
val run :
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?checkpoint:string ->
  ?redraw:(unit -> Fault.experiment) ->
  ?snapshots:Cpu.Machine.snapshot array ->
  ?recorder:Obs.Span.t ->
  ?supervise:Supervisor.config ->
  ?chaos:Supervisor.chaos_plan ->
  ?cancel:bool Atomic.t ->
  spec:Fault.run_spec ->
  golden:Cpu.Machine.result ->
  Fault.experiment array ->
  report

(** [single ~seed ~n spec] — the paper's Fig. 13 campaign: [n] independent
    single-bit injections.  [fast_forward] (default [true]) captures
    snapshots during the golden run and starts every injection run from
    the latest snapshot preceding its site; the report is bit-identical
    either way.  [supervise]/[chaos]/[cancel] as in {!run}.
    @raise Invalid_argument if [spec] has no hardened code to inject
    into. *)
val single :
  ?seed:int ->
  ?n:int ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?checkpoint:string ->
  ?fast_forward:bool ->
  ?supervise:Supervisor.config ->
  ?chaos:Supervisor.chaos_plan ->
  ?cancel:bool Atomic.t ->
  Fault.run_spec ->
  report

(** [double ~seed ~n ~same_bit spec] — double-bit campaign (§III-C);
    [same_bit] flips the same bit in two lanes (the adversarial
    two-agreeing-corrupt-replicas pattern). *)
val double :
  ?seed:int ->
  ?n:int ->
  ?same_bit:bool ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?checkpoint:string ->
  ?fast_forward:bool ->
  ?supervise:Supervisor.config ->
  ?chaos:Supervisor.chaos_plan ->
  ?cancel:bool Atomic.t ->
  Fault.run_spec ->
  report

(** [model_campaign ~model spec] — campaign under a fault-model axis:
    register SEUs ([Reg], same distribution as {!single}), memory
    bit-flips ([Mem]), effective-address faults ([Addr]), control-flow
    faults ([Cf]), or a uniform mix ([Mixed]).  Sites are drawn against
    the golden run's per-kind site streams, pre-drawn and folded in plan
    order, so the stats are bit-identical for any worker count.
    @raise Invalid_argument if the model's site stream is empty for this
    build. *)
val model_campaign :
  ?seed:int ->
  ?n:int ->
  ?jobs:int ->
  ?progress:(progress -> unit) ->
  ?checkpoint:string ->
  ?fast_forward:bool ->
  ?supervise:Supervisor.config ->
  ?chaos:Supervisor.chaos_plan ->
  ?cancel:bool Atomic.t ->
  model:Fault.model ->
  Fault.run_spec ->
  report

(** One-line wall-time / simulated-cycles / jobs summary for bench output. *)
val pp_totals : Format.formatter -> report -> unit
