(** Supervision layer for fault-injection campaigns.

    The campaign engine assumes every experiment returns an observation;
    this module makes that assumption safe at scale.  It wraps
    {!Fault.run_experiment_from} with RepTFD's bounded-replay discipline
    (PAPERS.md) applied to the harness itself:

    - {b host-exception isolation} — any exception escaping a run
      (simulator invariant violation, [Stack_overflow], [Out_of_memory])
      is captured with its backtrace and deterministically re-executed up
      to [retries] times; a persistent failure is quarantined into a
      {!tool_error} instead of killing the worker pool;
    - {b cooperative cancellation} — the machine's
      {!Cpu.Machine.config.abort} hook reads the campaign's [cancel]
      flag at every quantum boundary, so Ctrl-C stops an in-flight run
      without a clock or a watchdog;
    - {b chaos injection} — a test-only plan (raise / slow / kill-worker
      on chosen plan slots) compiled into the machine's
      {!Cpu.Machine.config.chaos} hook, proving each supervision path
      end-to-end against the real engine.

    Runaway simulations need no wall-clock deadline: every quantum retires
    at least one instruction and campaigns pass {!Fault.hang_budget}, so
    they end as [Hang] outcomes, counted in simulated instructions.

    Quarantined experiments carry no observation: they are excluded from
    campaign statistics (supervision may shrink the sample, never skew
    it), persisted in the campaign checkpoint so a resume never re-executes
    a known-poison plan, and surfaced in the report.  {!Campaign.run}
    drives this module and owns the worker pool, including its
    worker-death handling. *)

(** Why an experiment was quarantined. *)
type error_kind =
  | Host_exception  (** an exception escaped the run on every attempt *)
  | Worker_death  (** the worker died while running the slot on every attempt *)

val error_kind_to_string : error_kind -> string

(** A quarantined experiment: plan position, failure class, attempts
    consumed, and the exception text/backtrace.  Everything except
    [te_backtrace] is deterministic under a chaos plan and is rendered
    into the report's results block. *)
type tool_error = {
  te_round : int;
  te_slot : int;
  te_kind : error_kind;
  te_attempts : int;
  te_detail : string;
  te_backtrace : string;
}

type config = {
  retries : int;
      (** re-executions of a raising run (or of a slot whose worker died)
          before quarantine *)
  max_tool_errors : int;
      (** campaign-level tolerance: more quarantines than this is a
          nonzero exit for the CLI (the library only reports) *)
}

(** [{ retries = 2; max_tool_errors = 0 }] *)
val default : config

(** {2 Chaos plans (test-only)} *)

type chaos_event =
  | Chaos_raise  (** raise {!Chaos_failure} out of the engine *)
  | Chaos_slow of float  (** sleep this many seconds, then run normally *)
  | Chaos_kill  (** raise {!Worker_kill}: the worker dies *)

type chaos_spec

type chaos_plan = chaos_spec list

(** [chaos ~slot event] fires [event] when plan slot [slot] executes —
    once on its first execution by default, on every execution with
    [~persistent:true]. *)
val chaos : ?persistent:bool -> slot:int -> chaos_event -> chaos_spec

(** Number of times the spec's slot was executed (every consultation
    counts, fired or not) — lets tests assert a quarantined slot was never
    re-executed after a checkpoint resume. *)
val chaos_hits : chaos_spec -> int

(** What {!Chaos_raise} raises: an ordinary host exception, exercising the
    isolation/retry path. *)
exception Chaos_failure

(** What {!Chaos_kill} raises.  {!supervised_run} deliberately re-raises
    it, exercising the pool's worker-death path. *)
exception Worker_kill

(** {2 One supervised experiment} *)

type verdict =
  | V_ok of Cpu.Machine.result * Cpu.Machine.exec_stats
      (** the run completed; result untouched, plus its execution paths *)
  | V_quarantined of tool_error  (** gave up; exclude the slot and record *)
  | V_cancelled  (** [cancel] was set: slot simply not executed *)

(** [supervised_run cfg ~cancel ~round ~slot ~chaos ~max_instrs
    ~snapshots ~spans spec e] executes one experiment with retry/quarantine
    as configured; the run aborts at the next quantum boundary once
    [cancel] is set.  Results of [V_ok] runs are bit-identical to
    {!Fault.run_experiment}.  @raise Worker_kill when a {!Chaos_kill}
    fires (the caller's pool must treat it as worker death). *)
val supervised_run :
  config ->
  cancel:bool Atomic.t ->
  round:int ->
  slot:int ->
  chaos:chaos_plan ->
  max_instrs:int ->
  snapshots:Cpu.Machine.snapshot array ->
  spans:Obs.Span.t ->
  Fault.run_spec ->
  Fault.experiment ->
  verdict

val pp_tool_error : Format.formatter -> tool_error -> unit
