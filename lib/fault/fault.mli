(** Fault-injection framework (paper §IV-B): single bit-flips in the
    destination register of one randomly chosen dynamic instruction inside
    hardened code (one lane for YMM destinations, per the SEU model of
    §III-A), classified against a golden run into the outcomes of Table I.
    The expanded taxonomy additionally injects memory bit-flips,
    effective-address faults and control-flow faults (the §VII
    limitations) via {!Cpu.Machine.fault_kind}.  Whole campaigns are
    driven by {!Campaign}. *)

type outcome =
  | Hang  (** program became unresponsive (instruction budget exhausted) *)
  | Deadlock
      (** all threads blocked on each other — counted separately, folded
          into the crashed bucket for Table I *)
  | Os_detected  (** trap: segfault, division by zero, abort, fail-stop *)
  | Elzar_corrected  (** a recovery routine ran and the output is correct *)
  | Masked  (** fault did not affect the output *)
  | Sdc  (** silent data corruption in the output *)
  | Not_reached
      (** injection site never executed — no fault was injected; campaigns
          discard these and redraw rather than counting them as [Masked] *)

val outcome_to_string : outcome -> string

(** Fault-model axis of a campaign.  The first four select one
    {!Cpu.Machine.fault_kind}; [Mixed] draws a kind per experiment
    (uniformly among the kinds with at least one site in the golden
    run). *)
type model = Reg | Mem | Addr | Cf | Mixed

val model_to_string : model -> string

val all_models : model list

(** Everything needed to run one experiment deterministically. *)
type run_spec = {
  modul : Ir.Instr.modul;  (** already prepared (hardened or native) *)
  flags_cmp : bool;
  entry : string;
  args : int64 array;
  init : Cpu.Machine.t -> unit;  (** host-side input preparation *)
  max_instrs : int;
  reexec_retries : int;  (** re-execution recovery budget of the build *)
  engine : Cpu.Machine.engine_kind;  (** execution engine for every run *)
}

val make_spec :
  ?flags_cmp:bool ->
  ?args:int64 array ->
  ?init:(Cpu.Machine.t -> unit) ->
  ?max_instrs:int ->
  ?reexec_retries:int ->
  ?engine:Cpu.Machine.engine_kind ->
  Ir.Instr.modul ->
  string ->
  run_spec

(** One pre-drawn experiment.  For [Reg_flip]: flip [bit] of one lane of
    the destination of the [at]-th injection-eligible instruction, plus an
    optional second (lane, bit) flip for multi-bit SEUs (resolved to a
    non-aliasing target by {!Cpu.Machine.second_flip}).  The other kinds
    draw [at] against their own site streams and ignore [lane]/[second]. *)
type experiment = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;
  kind : Cpu.Machine.fault_kind;
}

(** Fault-free reference run; counts the injection-eligible dynamic
    instructions and the memory-access / branch site streams.
    @raise Invalid_argument if the reference run traps. *)
val golden : run_spec -> Cpu.Machine.result

(** {!golden}, additionally capturing machine snapshots along the run
    (oldest-first), for campaign fast-forward via
    {!run_experiment_from}.  Captures are spaced by dynamic instruction
    count and geometrically thinned, so at most a couple dozen are kept
    regardless of run length.  [spans] folds each capture's wall time
    into the ["golden/snapshot"] phase span. *)
val golden_capture :
  ?spans:Obs.Span.t -> run_spec -> Cpu.Machine.result * Cpu.Machine.snapshot array

(** Instruction budget for injection runs, derived from the golden run:
    [min spec.max_instrs (max 1_000_000 (20 * golden retired instrs))].
    Campaigns use this instead of the spec's (much larger) default budget
    so hung runs are cut off quickly. *)
val hang_budget : golden:Cpu.Machine.result -> run_spec -> int

(** Classification against the golden run.  A run whose injection site was
    never reached ([fault_injected = false]) is [Not_reached], not
    [Masked] — counting it as correct would inflate [correct_pct]. *)
val classify : golden:Cpu.Machine.result -> Cpu.Machine.result -> outcome

(** Runs one experiment and returns the raw machine result (outcome via
    {!classify}; simulated cycles via [wall_cycles]).  [max_instrs]
    overrides the spec's budget — campaigns pass {!hang_budget}.  [abort]
    and [chaos] are threaded into the machine config verbatim (the
    supervision hooks of {!Cpu.Machine.config}); a run that was never
    aborted is bit-identical with or without them. *)
val run_experiment :
  ?max_instrs:int ->
  ?abort:(unit -> bool) ->
  ?chaos:(unit -> unit) ->
  run_spec ->
  experiment ->
  Cpu.Machine.result

(** {!run_experiment}, fast-forwarded: restores the latest of [snapshots]
    (a {!golden_capture} array) whose site-stream counter for the
    experiment's fault kind is still below [at], and resumes from there
    under the injecting config.  Bit-identical outcome to a from-scratch
    {!run_experiment} — the skipped prefix is deterministic and fault-free
    by construction.  Falls back to a full run when the site precedes the
    first snapshot.  [spans] folds each restore's wall time into the
    ["exec/restore"] phase span (recorders are thread-safe, so campaign
    workers may share one). *)
val run_experiment_from :
  ?max_instrs:int ->
  ?spans:Obs.Span.t ->
  ?abort:(unit -> bool) ->
  ?chaos:(unit -> unit) ->
  snapshots:Cpu.Machine.snapshot array ->
  run_spec ->
  experiment ->
  Cpu.Machine.result

(** One experiment: flip [bit] of one lane of the destination of the
    [at]-th injection-eligible instruction. *)
val inject_one :
  run_spec -> golden:Cpu.Machine.result -> at:int -> lane:int -> bit:int -> outcome

(** Two flips in the same destination register (multi-bit SEU). *)
val inject_two :
  run_spec ->
  golden:Cpu.Machine.result ->
  at:int ->
  lane:int ->
  bit:int ->
  lane2:int ->
  bit2:int ->
  outcome

type stats = {
  runs : int;
  hang : int;
  deadlock : int;
  os_detected : int;
  corrected : int;
  masked : int;
  sdc : int;
}

val empty_stats : stats

(** Folds one outcome into the counters.  [Not_reached] leaves the stats
    unchanged: such a run injected nothing and must not dilute the rates. *)
val add_outcome : stats -> outcome -> stats

(** The three Fig. 13 bars ([crashed_pct] includes deadlocks). *)
val crashed_pct : stats -> float

val correct_pct : stats -> float
val sdc_pct : stats -> float
val pp_stats : Format.formatter -> stats -> unit

(** Per-run observation kept by campaigns: outcome plus wall cycles,
    injection-site instruction class and detection latency. *)
type obs = {
  o_outcome : outcome;
  o_cycles : int;
  o_class : string option;
  o_latency : int option;
}

val observe : golden:Cpu.Machine.result -> Cpu.Machine.result -> obs

(** Mean detection latency (dynamic instructions) over the observations
    that detected their fault; [None] if none did. *)
val mean_latency : obs array -> float option

(** AVF-style table: per injection-site instruction class, outcome stats;
    sorted by descending SDC rate. *)
val avf_table : obs array -> (string * stats) list

val pp_avf : Format.formatter -> (string * stats) list -> unit
