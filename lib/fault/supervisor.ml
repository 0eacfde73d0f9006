(** Supervised experiment execution (see supervisor.mli).

    The design follows RepTFD's replay discipline: a suspect run is
    isolated, deterministically re-executed a bounded number of times, and
    only then given up on — except the suspect here is the *harness*
    itself (a host exception out of the simulator, a dead worker), not the
    simulated program.  Every verdict that is not [V_ok] leaves the
    campaign's statistics untouched: supervision may shrink the sample,
    never skew it. *)

(* ---- quarantine records ---- *)

type error_kind = Host_exception | Worker_death

let error_kind_to_string = function
  | Host_exception -> "exception"
  | Worker_death -> "worker-death"

type tool_error = {
  te_round : int;
  te_slot : int;
  te_kind : error_kind;
  te_attempts : int;
  te_detail : string;
  te_backtrace : string;
}

(* ---- configuration ---- *)

type config = { retries : int; max_tool_errors : int }

let default = { retries = 2; max_tool_errors = 0 }

(* ---- chaos plans (test-only) ---- *)

type chaos_event = Chaos_raise | Chaos_slow of float | Chaos_kill

type chaos_spec = {
  ch_slot : int;
  ch_event : chaos_event;
  ch_persistent : bool;
  ch_hits : int Atomic.t;
}

type chaos_plan = chaos_spec list

let chaos ?(persistent = false) ~slot event =
  { ch_slot = slot; ch_event = event; ch_persistent = persistent; ch_hits = Atomic.make 0 }

let chaos_hits (c : chaos_spec) = Atomic.get c.ch_hits

exception Chaos_failure

exception Worker_kill

(* The machine-side chaos hook for one attempt at [slot], or [None].  The
   hit counter advances on every *consultation* (i.e. every execution of
   the slot), so tests can assert a quarantined-then-resumed slot was
   never re-executed; one-shot specs only act on their first hit. *)
let chaos_hook (plan : chaos_plan) ~(slot : int) : (unit -> unit) option =
  match List.find_opt (fun c -> c.ch_slot = slot) plan with
  | None -> None
  | Some c ->
      let hit = Atomic.fetch_and_add c.ch_hits 1 in
      if hit > 0 && not c.ch_persistent then None
      else
        Some
          (match c.ch_event with
          | Chaos_raise -> fun () -> raise Chaos_failure
          | Chaos_kill -> fun () -> raise Worker_kill
          | Chaos_slow d -> fun () -> Unix.sleepf d)

(* ---- one supervised experiment ---- *)

type verdict =
  | V_ok of Cpu.Machine.result * Cpu.Machine.exec_stats
  | V_quarantined of tool_error
  | V_cancelled

let supervised_run (cfg : config) ~(cancel : bool Atomic.t) ~(round : int) ~(slot : int)
    ~(chaos : chaos_plan) ~(max_instrs : int)
    ~(snapshots : Cpu.Machine.snapshot array) ~(spans : Obs.Span.t)
    (spec : Fault.run_spec) (e : Fault.experiment) : verdict =
  let abort () = Atomic.get cancel in
  (* A raising run is retried [cfg.retries] times (RepTFD-style bounded
     replay: a deterministic failure will reproduce, an environmental one
     — Out_of_memory, a chaos injection — may clear). *)
  let rec attempt ~(failures : int) : verdict =
    if Atomic.get cancel then V_cancelled
    else
      let hook = chaos_hook chaos ~slot in
      match
        Fault.run_experiment_paths ~max_instrs ~spans ~abort ?chaos:hook ~snapshots spec e
      with
      | r, paths -> V_ok (r, paths)
      | exception Cpu.Machine.Abort -> V_cancelled
      | exception Worker_kill ->
          (* deliberate worker death (chaos): let it escape to the pool's
             death handler, which requeues or quarantines the slot *)
          raise Worker_kill
      | exception exn ->
          let bt = Printexc.get_backtrace () in
          if failures >= cfg.retries then
            V_quarantined
              {
                te_round = round;
                te_slot = slot;
                te_kind = Host_exception;
                te_attempts = failures + 1;
                te_detail = Printexc.to_string exn;
                te_backtrace = bt;
              }
          else attempt ~failures:(failures + 1)
  in
  attempt ~failures:0

let pp_tool_error fmt (te : tool_error) =
  Format.fprintf fmt "slot %d (round %d): %s after %d attempt%s%s" te.te_slot te.te_round
    (error_kind_to_string te.te_kind)
    te.te_attempts
    (if te.te_attempts = 1 then "" else "s")
    (if te.te_detail = "" then "" else ": " ^ te.te_detail)
