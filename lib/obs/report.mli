(** The one report pipeline: renders counters, fault-injection statistics,
    AVF tables, detection-latency histograms, phase spans, per-class
    profiles and whole campaign/run results as versioned JSON documents
    (schema notes in EXPERIMENTS.md).

    Every top-level document starts with ["schema"] (a document-kind name
    like ["elzar.campaign"]) and ["version"] ({!version}); consumers must
    check both.  Within a version, members may be added but never removed,
    renamed or re-typed — bump {!version} for anything else.

    Documents are deterministic given their data: for a fixed campaign
    seed, the {!campaign_results} section is bit-identical for any worker
    count (only the ["timing"] and ["spans"] sections of the full
    {!campaign} document vary run to run). *)

(** Schema version stamped into every document. *)
val version : int

(** [versioned ~schema fields] is the standard envelope:
    [{"schema": ..., "version": ..., fields...}]. *)
val versioned : schema:string -> (string * Obs.Json.t) list -> Obs.Json.t

val counters : Cpu.Counters.t -> Obs.Json.t

(** Outcome counts plus the Fig. 13 percentage bars — the JSON rendering
    of {!Fault.pp_stats}'s numbers. *)
val stats : Fault.stats -> Obs.Json.t

(** Per-instruction-class outcome table ({!Fault.avf_table} order). *)
val avf : (string * Fault.stats) list -> Obs.Json.t

(** Detection-latency summary: mean plus a log2-bucketed histogram
    (bucket [k] counts latencies in [[2^k, 2^(k+1))] dynamic
    instructions). *)
val latency : Fault.obs array -> Obs.Json.t

val spans : Obs.Span.row list -> Obs.Json.t

(** Per-class cycle attribution rows ({!Cpu.Profile.rows} order). *)
val profile : Cpu.Profile.t -> Obs.Json.t

(** The deterministic sections of a campaign report: stats, outcome
    histogram, AVF table, latency histogram, and (since version 2) the
    quarantine count and tool-error records of supervised execution —
    rendered as [0]/[[]] when nothing was quarantined.  Bit-identical for any
    worker count, with or without fast-forward or checkpoint resume
    (quarantine backtraces, which vary host to host, are excluded). *)
val campaign_results : Campaign.report -> Obs.Json.t

(** Full campaign document (schema ["elzar.campaign"]): [params] (caller
    context such as workload/build/seed), the deterministic
    {!campaign_results}, and the run-variant ["timing"] (including the
    version-2 ["worker_deaths"]/["interrupted"] supervision fields) and
    ["spans"] sections. *)
val campaign : ?params:(string * Obs.Json.t) list -> Campaign.report -> Obs.Json.t

(** Single-run document (schema ["elzar.run"]): wall cycles, counter
    totals, output digest, recovery counters, optional per-class
    profile. *)
val run_result :
  ?params:(string * Obs.Json.t) list ->
  ?profile:Cpu.Profile.t ->
  Cpu.Machine.result ->
  Obs.Json.t

(** Pretty-prints the document to [path] (trailing newline included). *)
val write : string -> Obs.Json.t -> unit
