(** The simulated multicore machine.

    Executes compiled code functionally (bit-exact lane semantics from
    {!Value}) while driving one {!Timing} engine, {!Cache} and
    {!Branch_pred} per core.  Threads map 1:1 onto cores, as in the paper's
    testbed; the scheduler always advances the thread whose core clock is
    furthest behind, which makes lock contention and join edges show up in
    wall-clock cycles.  Also hosts the native builtins (OS/pthreads/IO —
    unhardened, §IV-A) and the single-bit fault-injection hook (§IV-B). *)

type trap_reason =
  | Segfault of int64
  | Div_by_zero
  | Aborted
  | Elzar_fatal  (** recovery found no majority: detected but uncorrectable *)
  | Bad_callee of int64
  | Deadlock
  | Unreachable_executed
  | Hang  (** instruction budget exhausted *)

exception Trap of trap_reason

let string_of_trap = function
  | Segfault a -> Printf.sprintf "segfault at 0x%Lx" a
  | Div_by_zero -> "division by zero"
  | Aborted -> "abort() called"
  | Elzar_fatal -> "elzar: uncorrectable fault (no majority)"
  | Bad_callee a -> Printf.sprintf "indirect call to 0x%Lx" a
  | Deadlock -> "deadlock"
  | Unreachable_executed -> "unreachable executed"
  | Hang -> "instruction budget exhausted"

type frame = {
  cf : Code.cfunc;
  regs : int64 array;
  ready : int array;
  mutable pc : int;
  ret_off : int;  (** slot in the caller frame for the return value; -1 *)
  saved_sp : int64;
}

type status = Running | Waiting of int | Waiting_barrier of int64 | Done

(* Re-execution checkpoint: everything needed to restart the outermost
   hardened call of a thread from scratch (RepTFD-style replay recovery).
   The undo log records (address, width, old value) for every simulated
   store the thread performs while the checkpoint is live; rollback
   replays it newest-first.  Builtins with externally visible effects
   (locks, spawns, allocation) invalidate the checkpoint instead. *)
type ckpt = {
  ck_cf : Code.cfunc;
  ck_args : int64 array;  (** scalar arguments as passed at the call *)
  ck_ret_off : int;
  ck_sp : int64;
  ck_caller : frame list;  (** the frames below the checkpointed one *)
  ck_out_len : int;  (** program-output length at checkpoint time *)
  mutable ck_frame : frame;  (** the live checkpointed frame (physical identity) *)
  mutable ck_log : (int64 * int * int64) list;
  mutable ck_log_len : int;
  mutable ck_valid : bool;
  mutable ck_tries : int;  (** rollbacks consumed *)
}

(* Undo-log length bound; a hardened call writing more than this simply
   loses re-execution coverage (the checkpoint is invalidated). *)
let ck_log_cap = 200_000

type thread = {
  tid : int;
  mutable frames : frame list;
  timing : Timing.t;
  cache : Cache.t;
  bpred : Branch_pred.t;
  ctr : Counters.t;
  mutable status : status;
  mutable sp : int64;
  start_cycle : int;
  mutable final_cycle : int;
  mutable ck : ckpt option;
}

(* The transient-fault taxonomy (§VII discusses exactly the non-register
   faults the paper's campaign does not model): register SEUs (the paper's
   §IV-B model), bit-flips in simulated memory, effective-address faults on
   loads/stores, and control-flow faults diverting a conditional branch. *)
type fault_kind =
  | Reg_flip  (** flip bit(s) in the destination register (default) *)
  | Mem_flip
      (** flip one bit of a byte touched by the [at]-th memory access,
          right after that access (visible to the at+1-th access of it) *)
  | Addr_flip  (** flip one bit of the [at]-th load/store's effective address *)
  | Branch_flip  (** divert the [at]-th conditional branch to the wrong successor *)

let fault_kind_to_string = function
  | Reg_flip -> "reg"
  | Mem_flip -> "mem"
  | Addr_flip -> "addr"
  | Branch_flip -> "cf"

type inject = {
  at : int;
  lane : int;
  bit : int;
  second : (int * int) option;  (** optional second (lane, bit) flip in the
                                    same destination — multi-bit SEU *)
  kind : fault_kind;
}

(* Resolves the second flip of a multi-bit SEU against the destination's
   actual lane count.  The raw (lane2, bit2) pair is drawn before the
   injection site (and hence its [dlanes]) is known; after the [mod dlanes]
   wrap it could land on the first flip's lane and silently cancel it,
   turning the experiment into a fault-free run.  Guarantees the returned
   flip never cancels the first: on a multi-lane destination the second
   lane is remapped to a distinct lane; on a scalar destination (a single
   lane, i.e. no second replica to corrupt) it falls back to a distinct
   bit of the same word. *)
let second_flip ~(dlanes : int) ~(lane : int) ~(bit : int) ~(lane2 : int) ~(bit2 : int) :
    int * int =
  let dlanes = max dlanes 1 in
  let l1 = lane mod dlanes in
  let l2 = lane2 mod dlanes in
  let b1 = bit land 63 and b2 = bit2 land 63 in
  if dlanes = 1 then (0, if b2 = b1 then (b1 + 1) land 63 else b2)
  else if l2 = l1 then ((l1 + 1 + (lane2 mod (dlanes - 1))) mod dlanes, b2)
  else (l2, b2)

(* Three-tier execution engine.  [Closure] is the threaded-code tier: at
   machine-build time every [rinstr] is translated into a pre-specialized
   OCaml closure (operand offsets, lane strides, flag bookkeeping and the
   fault-injection hooks of *this* config resolved once), and the dispatch
   loop just tail-calls through the closure array.  [Block] additionally
   fuses each straight-line run of instructions into a single superblock
   closure with bulk counter updates and a precompiled static timing plan;
   blocks whose instructions would carry compiled-in hooks (armed fault
   sites, census, undo log, tracing, profiling) deoptimize to the
   per-instruction closures.  [Reference] is the original [step]
   interpreter, kept as the executable spec: all tiers are required to
   produce bit-identical results (cycles, counters, output, traps), which
   the engine-equivalence tests assert. *)
type engine_kind = Reference | Closure | Block

let engine_to_string = function
  | Reference -> "reference"
  | Closure -> "closure"
  | Block -> "block"

(* Raised out of [resume] when the abort hook reports cancellation at a
   quantum boundary.  Deliberately NOT a [trap_reason]: an aborted run is
   not an experiment outcome (the simulation was cut short by the host),
   so it must never be classified — supervisors catch it and decide
   whether to retry or quarantine. *)
exception Abort

type config = {
  max_instrs : int;
  inject : inject option;
  count_inject_sites : bool;
  stack_size : int;
  reexec_retries : int;
      (** re-execution recovery budget: >0 checkpoints each outermost
          hardened call (registers, stack pointer, a memory undo log) so
          the [elzar_reexec] runtime marker can roll the thread back and
          retry the whole call that many times before fail-stopping *)
  trace : Buffer.t option;
      (** per-instruction execution trace (requires [debug] compilation);
          capped at ~1 MB — the Intel SDE debugtrace analogue of §IV-B *)
  engine : engine_kind;
  profile : Profile.t option;
      (** per-instruction-class cycle attribution (closure engine only);
          [None] compiles no hook into the closures at all *)
  abort : (unit -> bool) option;
      (** cancellation hook, polled once per scheduling quantum (the same
          boundary [on_quantum] fires on): the first [true] raises {!Abort}
          out of the run.  Kept a closure so callers can poll an atomic
          cancel flag without the machine knowing about it;
          [None] compiles to a single match per quantum *)
  chaos : (unit -> unit) option;
      (** test-only chaos hook: invoked exactly once, at the first quantum
          boundary of the run, on the simulation thread.  Supervision
          tests use it to raise host exceptions, kill the worker, or slow
          the run down — proving the supervisor's isolation/retry and the
          pool's worker-death paths against a real engine.  [None]
          (the default everywhere outside tests) costs one bool check per
          quantum *)
}

let default_config =
  {
    max_instrs = 400_000_000;
    inject = None;
    count_inject_sites = false;
    stack_size = 1 lsl 17;
    reexec_retries = 0;
    trace = None;
    engine = Closure;
    profile = None;
    abort = None;
    chaos = None;
  }

(* One fused superblock of the block engine: [fb_len] dynamic instructions
   (a hook-free straight-line prefix, plus the trailing block ender when
   the run ends in a control transfer) executed by one closure.  [fb_exec]
   follows the same return protocol as the per-instruction closures. *)
type fblock = { fb_len : int; fb_exec : thread -> frame -> int }

type t = {
  code : Code.t;
  mem : Memory.t;
  mutable threads : thread list;  (** reverse spawn order *)
  mutable by_tid : thread array;
      (** tid-indexed view of [threads] (tids are dense spawn indices);
          O(1) lookup on the hot join path.  Only the first [nthreads]
          entries are meaningful. *)
  mutable kcode : (thread -> frame -> int) array array;
      (** closure-compiled code, indexed by [cf_id] then [pc]; built
          lazily on the first [resume] under the [Closure] and [Block]
          engines *)
  mutable kblocks : fblock option array array;
      (** fused superblocks, indexed by [cf_id] then starting [pc];
          [Some] only at fusable block starts.  Built lazily on the first
          [resume] under the [Block] engine *)
  mutable snap_base : Bytes.t;
      (** memory image at the first snapshot of this run; empty until
          [snapshot] is first called *)
  mutable nthreads : int;
  output : Buffer.t;
  alloc_sizes : (int64, int) Hashtbl.t;
  cfg : config;
  mutable total_instrs : int;
  mutable inj_count : int;  (** injection-eligible instructions executed *)
  mutable mem_count : int;  (** hardened-code memory accesses executed *)
  mutable br_count : int;  (** hardened-code conditional branches executed *)
  mutable injected : bool;
  mutable recovered : int;  (** recovery-routine activations *)
  mutable retried : int;  (** recovery re-vote retries *)
  mutable reexecs : int;  (** re-execution rollbacks performed *)
  mutable addr_mask : int64;  (** armed address-fault XOR mask; 0 = disarmed *)
  mutable mem_flip_armed : bool;
  mutable cf_divert : bool;
  mutable inject_instr : int;  (** [total_instrs] at injection time; -1 *)
  mutable detect_instr : int;  (** [total_instrs] at first recovery/trap; -1 *)
  mutable inject_class : string;  (** instruction class at the injection site *)
}

type result = {
  wall_cycles : int;
  counters : Counters.t list;  (** one per thread, spawn order *)
  totals : Counters.t;
  output_digest : string;
  output_bytes : string;
  trap : trap_reason option;
  recovered_faults : int;
  retried_faults : int;
  reexecutions : int;
  inject_sites : int;
  mem_sites : int;
  branch_sites : int;
  fault_injected : bool;
  inject_class : string option;
  detect_latency : int option;
      (** dynamic instructions between injection and the first recovery
          activation or trap; [None] if never detected *)
}

let create ?(cfg = default_config) ?(flags_cmp = false) (m : Ir.Instr.modul) : t =
  let mem = Memory.create () in
  let code = Code.compile ~debug:(cfg.trace <> None) ~flags_cmp m mem in
  {
    code;
    mem;
    threads = [];
    by_tid = [||];
    kcode = [||];
    kblocks = [||];
    snap_base = Bytes.empty;
    nthreads = 0;
    output = Buffer.create 256;
    alloc_sizes = Hashtbl.create 64;
    cfg;
    total_instrs = 0;
    inj_count = 0;
    mem_count = 0;
    br_count = 0;
    injected = false;
    recovered = 0;
    retried = 0;
    reexecs = 0;
    addr_mask = 0L;
    mem_flip_armed = false;
    cf_divert = false;
    inject_instr = -1;
    detect_instr = -1;
    inject_class = "";
  }

(* Address of a named global, for host-side input preparation (the moral
   equivalent of the benchmark reading its input file — unhardened I/O that
   costs no simulated cycles). *)
let global_addr (m : t) name =
  match Hashtbl.find_opt m.code.Code.globals name with
  | Some a -> a
  | None -> invalid_arg ("Machine.global_addr: unknown global " ^ name)

(* ---- operand access ---- *)

let get_lane (regs : int64 array) (o : Code.rop) (j : int) : int64 =
  match o with
  | Code.Oslot (off, lanes) -> regs.(off + if lanes = 1 then 0 else j mod lanes)
  | Code.Oconst a -> a.(if Array.length a = 1 then 0 else j mod Array.length a)

let get_scalar (regs : int64 array) (o : Code.rop) : int64 =
  match o with Code.Oslot (off, _) -> regs.(off) | Code.Oconst a -> a.(0)

(* ---- threads ---- *)

let new_frame (cf : Code.cfunc) ~ret_off ~sp : frame =
  {
    cf;
    regs = Array.make (max cf.Code.nslots 1) 0L;
    ready = Array.make (max cf.Code.nslots 1) 0;
    pc = 0;
    ret_off;
    saved_sp = sp;
  }

let spawn_thread (m : t) (cf : Code.cfunc) (args : int64 array) ~(start_cycle : int) : thread =
  let stack_base = Memory.alloc_stack m.mem m.cfg.stack_size in
  let sp = Int64.add stack_base (Int64.of_int m.cfg.stack_size) in
  let fr = new_frame cf ~ret_off:(-1) ~sp in
  Array.iteri
    (fun i v ->
      if i < Array.length cf.Code.param_offs then begin
        let off, lanes = cf.Code.param_offs.(i) in
        for j = 0 to lanes - 1 do
          fr.regs.(off + j) <- v
        done
      end)
    args;
  let timing = Timing.create () in
  Timing.sync_to timing start_cycle;
  let th =
    {
      tid = m.nthreads;
      frames = [ fr ];
      timing;
      cache = Cache.create ();
      bpred = Branch_pred.create ();
      ctr = Counters.create ();
      status = Running;
      sp;
      start_cycle;
      final_cycle = 0;
      ck = None;
    }
  in
  if m.cfg.reexec_retries > 0 && cf.Code.cf_hardened then
    th.ck <-
      Some
        {
          ck_cf = cf;
          ck_args = Array.copy args;
          ck_ret_off = -1;
          ck_sp = sp;
          ck_caller = [];
          ck_out_len = Buffer.length m.output;
          ck_frame = fr;
          ck_log = [];
          ck_log_len = 0;
          ck_valid = true;
          ck_tries = 0;
        };
  m.threads <- th :: m.threads;
  if m.nthreads >= Array.length m.by_tid then begin
    let grown = Array.make (max 4 (2 * Array.length m.by_tid)) th in
    Array.blit m.by_tid 0 grown 0 (Array.length m.by_tid);
    m.by_tid <- grown
  end;
  m.by_tid.(m.nthreads) <- th;
  m.nthreads <- m.nthreads + 1;
  th

let wake_joiners (m : t) (finished : thread) =
  List.iter
    (fun th ->
      match th.status with
      | Waiting tid when tid = finished.tid ->
          th.status <- Running;
          Timing.sync_to th.timing finished.final_cycle
      | _ -> ())
    m.threads

let finish_thread (m : t) (th : thread) =
  th.status <- Done;
  th.final_cycle <- Timing.cycle th.timing;
  (* busy span, for per-core IPC (Table III) *)
  th.ctr.Counters.cycles <- th.final_cycle - th.start_cycle;
  wake_joiners m th

let find_thread (m : t) tid =
  if tid >= 0 && tid < m.nthreads then Some m.by_tid.(tid) else None

(* ---- fault bookkeeping ---- *)

let mark_injected (m : t) (cls : string) =
  if not m.injected then begin
    m.injected <- true;
    m.inject_instr <- m.total_instrs;
    m.inject_class <- cls
  end

(* First point where the machine *reacted* to the injected fault — a
   recovery-routine activation, a retry, a rollback, or a trap. *)
let note_detect (m : t) =
  if m.injected && m.detect_instr < 0 then m.detect_instr <- m.total_instrs

let note_recovered (m : t) =
  m.recovered <- m.recovered + 1;
  note_detect m

(* ---- re-execution checkpoints ---- *)

let ck_invalidate (th : thread) =
  match th.ck with Some ck -> ck.ck_valid <- false | None -> ()

(* Program output is a single shared buffer: rollback truncates it to the
   checkpointed length, which is only sound if no *other* thread appended
   since.  Output from any thread therefore invalidates everyone else's
   checkpoint. *)
let ck_invalidate_others (m : t) (th : thread) =
  List.iter (fun o -> if o.tid <> th.tid then ck_invalidate o) m.threads

let ck_log_write (m : t) (th : thread) ~(width : int) (addr : int64) =
  match th.ck with
  | Some ck when ck.ck_valid ->
      if ck.ck_log_len >= ck_log_cap then ck.ck_valid <- false
      else begin
        ck.ck_log <- (addr, width, Memory.read m.mem ~width addr) :: ck.ck_log;
        ck.ck_log_len <- ck.ck_log_len + 1
      end
  | _ -> ()

(* Fixed rollback cost: restoring registers and replaying the undo log is
   the moral equivalent of a signal-handler round trip. *)
let reexec_cycles = 400

(* Rolls [th] back to its checkpoint: undoes logged stores newest-first
   (so the oldest value of a twice-written cell wins), truncates this
   thread's program output, and reinstalls a fresh frame with the original
   arguments.  The one-shot injection already fired (its site counter was
   consumed), so the re-execution is fault-free.  Returns [false] when no
   valid checkpoint or no retry budget remains. *)
let reexec_rollback (m : t) (th : thread) : bool =
  match th.ck with
  | Some ck when ck.ck_valid && ck.ck_tries < m.cfg.reexec_retries ->
      ck.ck_tries <- ck.ck_tries + 1;
      m.reexecs <- m.reexecs + 1;
      note_detect m;
      List.iter (fun (addr, w, v) -> Memory.write m.mem ~width:w addr v) ck.ck_log;
      ck.ck_log <- [];
      ck.ck_log_len <- 0;
      if Buffer.length m.output > ck.ck_out_len then Buffer.truncate m.output ck.ck_out_len;
      th.sp <- ck.ck_sp;
      let nf = new_frame ck.ck_cf ~ret_off:ck.ck_ret_off ~sp:ck.ck_sp in
      Array.iteri
        (fun i v ->
          if i < Array.length ck.ck_cf.Code.param_offs then begin
            let off, lanes = ck.ck_cf.Code.param_offs.(i) in
            for j = 0 to lanes - 1 do
              nf.regs.(off + j) <- v
            done
          end)
        ck.ck_args;
      ck.ck_frame <- nf;
      th.frames <- nf :: ck.ck_caller;
      Timing.advance th.timing reexec_cycles;
      true
  | _ -> false

(* ---- builtins ---- *)

type baction = Bdone | Bretry | Bblock of int | Bbarrier of int64 | Breexec

let exec_builtin (m : t) (th : thread) (fr : frame) (id : int) (args : int64 array)
    (dst : int) (dlanes : int) : baction =
  let spec = Builtins.get id in
  let retv = ref 0L in
  let action = ref Bdone in
  (* Checkpoint discipline: builtins with externally visible effects end
     re-execution coverage.  Output only invalidates *other* threads'
     checkpoints (own output is rolled back by truncation); rand64's state
     write is undo-logged like a normal store. *)
  (match spec.Builtins.name with
  | "thread_id" | "elzar_fatal" | "elzar_recovered" | "elzar_retried" | "elzar_reexec" -> ()
  | "output_i64" | "output_f64" | "output_bytes" -> ck_invalidate_others m th
  | "rand64" -> ()
  | _ -> ck_invalidate th);
  (match spec.Builtins.name with
  | "malloc" ->
      let size = Int64.to_int args.(0) in
      let p = Memory.malloc m.mem size in
      Hashtbl.replace m.alloc_sizes p size;
      retv := p
  | "free" -> (
      match Hashtbl.find_opt m.alloc_sizes args.(0) with
      | Some size ->
          Hashtbl.remove m.alloc_sizes args.(0);
          Memory.free m.mem args.(0) size
      | None -> raise (Trap (Segfault args.(0))))
  | "spawn" ->
      let f = args.(0) in
      let fid = Int64.to_int (Int64.sub f Code.fnptr_base) in
      if f < Code.fnptr_base || fid >= Array.length m.code.Code.cfuncs then
        raise (Trap (Bad_callee f));
      let child =
        spawn_thread m m.code.Code.cfuncs.(fid) [| args.(1) |]
          ~start_cycle:(Timing.cycle th.timing)
      in
      retv := Int64.of_int child.tid
  | "join" -> (
      let tid = Int64.to_int args.(0) in
      match find_thread m tid with
      | Some target when target.status = Done -> Timing.sync_to th.timing target.final_cycle
      | Some _ -> action := Bblock tid
      | None -> raise (Trap (Bad_callee args.(0))))
  | "lock" ->
      let v = Memory.read m.mem ~width:8 args.(0) in
      if v = 0L then Memory.write m.mem ~width:8 args.(0) 1L
      else begin
        (* spin: burn cycles and retry on the next scheduling round *)
        Timing.advance th.timing 60;
        action := Bretry
      end
  | "unlock" -> Memory.write m.mem ~width:8 args.(0) 0L
  | "barrier" ->
      (* pthread_barrier_wait: the cell holds the arrival count; the last
         arriver resets it and releases everyone at its clock *)
      let addr = args.(0) and n = args.(1) in
      let count = Int64.add (Memory.read m.mem ~width:8 addr) 1L in
      if count >= n then begin
        Memory.write m.mem ~width:8 addr 0L;
        let now = Timing.cycle th.timing in
        List.iter
          (fun other ->
            match other.status with
            | Waiting_barrier a when a = addr ->
                other.status <- Running;
                Timing.sync_to other.timing now
            | _ -> ())
          m.threads
      end
      else begin
        Memory.write m.mem ~width:8 addr count;
        action := Bbarrier addr
      end
  | "output_i64" | "output_f64" ->
      Buffer.add_int64_le m.output args.(0)
  | "output_bytes" ->
      let p = args.(0) and len = Int64.to_int args.(1) in
      Memory.check m.mem p (max len 1);
      Buffer.add_subbytes m.output m.mem.Memory.data (Int64.to_int p) len
  | "rand64" ->
      (* xorshift64* over a state cell in simulated memory *)
      let s = Memory.read m.mem ~width:8 args.(0) in
      let s = if s = 0L then 0x9E3779B97F4A7C15L else s in
      let s = Int64.logxor s (Int64.shift_left s 13) in
      let s = Int64.logxor s (Int64.shift_right_logical s 7) in
      let s = Int64.logxor s (Int64.shift_left s 17) in
      ck_log_write m th ~width:8 args.(0);
      Memory.write m.mem ~width:8 args.(0) s;
      retv := Int64.mul s 0x2545F4914F6CDD1DL
  | "abort" -> raise (Trap Aborted)
  | "elzar_fatal" -> raise (Trap Elzar_fatal)
  | "elzar_recovered" -> note_recovered m
  | "elzar_retried" ->
      m.retried <- m.retried + 1;
      note_detect m
  | "elzar_reexec" -> action := Breexec
  | "thread_id" -> retv := Int64.of_int th.tid
  | other -> failwith ("Machine.exec_builtin: unhandled builtin " ^ other));
  if !action = Bdone then begin
    Timing.advance th.timing spec.Builtins.cycles;
    if dst >= 0 then
      for j = 0 to dlanes - 1 do
        fr.regs.(dst + j) <- !retv;
        fr.ready.(dst + j) <- Timing.cycle th.timing
      done
  end;
  !action

(* ---- interpreter ---- *)

let majority4 ~(n : int) (get : int -> int64) : int64 =
  (* Value appearing at least twice among n lanes; raises if none.  The
     n<=4 chain is branch-ordered to early-exit on the overwhelmingly
     common all-agree case while preserving the reference scan order: lane
     0 is compared against every other lane before lane 1 is considered,
     so ties like (a,b,b,a) still resolve to lane 0's value. *)
  if n <= 0 then raise (Trap Elzar_fatal)
  else if n = 1 then get 0
  else begin
    let v0 = get 0 and v1 = get 1 in
    if v0 = v1 then v0
    else if n = 2 then raise (Trap Elzar_fatal)
    else begin
      let v2 = get 2 in
      if v0 = v2 then v0
      else if n = 3 then (if v1 = v2 then v1 else raise (Trap Elzar_fatal))
      else begin
        let v3 = get 3 in
        if v0 = v3 then v0
        else if v1 = v2 || v1 = v3 then v1
        else if v2 = v3 then v2
        else if n = 4 then raise (Trap Elzar_fatal)
        else begin
          (* n > 4 never occurs with AVX-width replication; keep the
             reference scan as a fallback *)
          let rec pick i =
            if i >= n then raise (Trap Elzar_fatal)
            else begin
              let v = get i in
              let count = ref 0 in
              for j = 0 to n - 1 do
                if get j = v then incr count
              done;
              if !count >= 2 then v else pick (i + 1)
            end
          in
          pick 0
        end
      end
    end
  end

(* Instruction class of an injection site, for the AVF-style per-class
   vulnerability table. *)
let class_of (op : Code.rinstr) : string =
  match op with
  | Code.Rbinop _ -> "alu"
  | Code.Ricmp _ -> "cmp"
  | Code.Rselect _ -> "select"
  | Code.Rcast _ -> "cast"
  | Code.Rmov _ -> "mov"
  | Code.Rload _ | Code.Rvload _ | Code.Rgather _ -> "load"
  | Code.Rstore _ | Code.Rvstore _ | Code.Rscatter _ -> "store"
  | Code.Ralloca _ -> "alloca"
  | Code.Rcall _ | Code.Rcall_ind _ -> "call"
  | Code.Ratomic _ | Code.Rcmpxchg _ -> "atomic"
  | Code.Rextract _ | Code.Rinsert _ | Code.Rbroadcast _ | Code.Rshuffle _
  | Code.Rptestz _ ->
      "vec"
  | Code.Tret _ | Code.Tbr _ | Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _
  | Code.Tunreachable ->
      "branch"

(* Trace emission, split out of [step] so the untraced quantum loop never
   touches the formatting code: when [cfg.trace = None] the per-step
   Printf work (and even the option check) is skipped entirely. *)
let emit_trace (buf : Buffer.t) (th : thread) =
  let fr = List.hd th.frames in
  if Buffer.length buf < 1_000_000 && Array.length fr.cf.Code.texts > fr.pc then
    Buffer.add_string buf
      (Printf.sprintf "T%d %c@%s+%d: %s\n" th.tid
         (if fr.cf.Code.cf_hardened then 'H' else '.')
         fr.cf.Code.cf_name fr.pc fr.cf.Code.texts.(fr.pc))

(* Executes one instruction of [th]; returns [false] when the thread left
   the Running state or terminated.  Trace emission lives in the quantum
   loop ([ref_quantum]), not here. *)
let step (m : t) (th : thread) : bool =
  let fr = List.hd th.frames in
  let it = fr.cf.Code.code.(fr.pc) in
  m.total_instrs <- m.total_instrs + 1;
  if m.total_instrs > m.cfg.max_instrs then raise (Trap Hang);
  let ctr = th.ctr in
  ctr.Counters.instrs <- ctr.Counters.instrs + 1;
  ctr.Counters.uops <- ctr.Counters.uops + Array.length it.Code.uops;
  let fl = it.Code.flags in
  if fl land Code.fl_avx <> 0 then ctr.Counters.avx_instrs <- ctr.Counters.avx_instrs + 1;
  if fl land Code.fl_load <> 0 then ctr.Counters.loads <- ctr.Counters.loads + 1;
  if fl land Code.fl_store <> 0 then ctr.Counters.stores <- ctr.Counters.stores + 1;
  if fl land Code.fl_branch <> 0 then ctr.Counters.branches <- ctr.Counters.branches + 1;
  (* Non-register fault streams: memory accesses and conditional branches
     inside hardened code each form their own deterministic site counter;
     arming happens *before* the instruction executes so the fault applies
     to this very access/branch. *)
  let is_mem_site =
    fr.cf.Code.cf_hardened && fl land (Code.fl_load lor Code.fl_store) <> 0
  in
  let is_br_site =
    fr.cf.Code.cf_hardened
    && match it.Code.op with Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _ -> true | _ -> false
  in
  (match m.cfg.inject with
  | Some inj -> (
      match inj.kind with
      | Reg_flip -> ()
      | Mem_flip | Addr_flip ->
          if is_mem_site then begin
            m.mem_count <- m.mem_count + 1;
            if m.mem_count = inj.at then
              if inj.kind = Addr_flip then
                m.addr_mask <- Int64.shift_left 1L (inj.bit land 63)
              else m.mem_flip_armed <- true
          end
      | Branch_flip ->
          if is_br_site then begin
            m.br_count <- m.br_count + 1;
            if m.br_count = inj.at then m.cf_divert <- true
          end)
  | None ->
      if m.cfg.count_inject_sites then begin
        if is_mem_site then m.mem_count <- m.mem_count + 1;
        if is_br_site then m.br_count <- m.br_count + 1
      end);
  (* input readiness *)
  let ready = ref 0 in
  Array.iter
    (fun s ->
      if fr.ready.(s) > !ready then ready := fr.ready.(s))
    it.Code.srcs;
  let regs = fr.regs in
  let mem_lat = ref 0 in
  let touch addr width =
    let lat = Cache.access th.cache addr in
    ctr.Counters.l1_refs <- ctr.Counters.l1_refs + 1;
    if lat > Cache.hit_latency then ctr.Counters.l1_misses <- ctr.Counters.l1_misses + 1;
    if lat > !mem_lat then mem_lat := lat;
    (* Armed memory fault: flip one bit of a byte this access touched,
       right after the access — the at+1-th access of the location sees
       the corruption.  Deliberately NOT undo-logged: memory corruption
       persists across re-execution rollback (ELZAR leaves memory to ECC,
       §III-A), so [Reexec] cannot mask it away. *)
    if m.mem_flip_armed then begin
      m.mem_flip_armed <- false;
      match m.cfg.inject with
      | Some inj -> (
          let a = Int64.add addr (Int64.of_int (inj.bit lsr 3 mod max width 1)) in
          try
            let b = Memory.read m.mem ~width:1 a in
            Memory.write m.mem ~width:1 a
              (Int64.logxor b (Int64.of_int (1 lsl (inj.bit land 7))));
            mark_injected m (class_of it.Code.op)
          with Memory.Fault _ -> ())
      | None -> ()
    end
  in
  (* Armed address fault: XOR one bit into the effective address of this
     (the [at]-th) load/store. *)
  let fix_addr (a : int64) : int64 =
    if m.addr_mask = 0L then a
    else begin
      let a' = Int64.logxor a m.addr_mask in
      m.addr_mask <- 0L;
      mark_injected m (class_of it.Code.op);
      a'
    end
  in
  let continue_ = ref true in
  let next_pc = ref (fr.pc + 1) in
  let branch_info = ref None in
  (* (taken, always_mispredict) *)
  (match it.Code.op with
  | Code.Rbinop (d, n, f, a, b) -> (
      try
        for j = 0 to n - 1 do
          regs.(d + j) <- f (get_lane regs a j) (get_lane regs b j)
        done
      with Value.Division_by_zero -> raise (Trap Div_by_zero))
  | Code.Ricmp (d, n, p, tmask, a, b) ->
      for j = 0 to n - 1 do
        regs.(d + j) <- (if p (get_lane regs a j) (get_lane regs b j) then tmask else 0L)
      done
  | Code.Rselect (d, n, c, a, b) ->
      for j = 0 to n - 1 do
        regs.(d + j) <- (if get_lane regs c j <> 0L then get_lane regs a j else get_lane regs b j)
      done
  | Code.Rcast (d, n, f, a) ->
      for j = 0 to n - 1 do
        regs.(d + j) <- f (get_lane regs a j)
      done
  | Code.Rmov (d, n, a) ->
      for j = 0 to n - 1 do
        regs.(d + j) <- get_lane regs a j
      done
  | Code.Rload (d, w, a) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        regs.(d) <- Memory.read m.mem ~width:w addr;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rvload (d, n, w, a) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        for j = 0 to n - 1 do
          regs.(d + j) <-
            Memory.read m.mem ~width:w (Int64.add addr (Int64.of_int (j * w)))
        done;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rstore (w, v, a) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr (get_scalar regs v);
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rvstore (n, w, v, a) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        for j = 0 to n - 1 do
          let aj = Int64.add addr (Int64.of_int (j * w)) in
          ck_log_write m th ~width:w aj;
          Memory.write m.mem ~width:w aj (get_lane regs v j)
        done;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Ralloca (d, size) ->
      th.sp <- Int64.sub th.sp (Int64.of_int (Memory.align16 size));
      regs.(d) <- th.sp
  | Code.Rcall (callee, argops, dst, dlanes) -> (
      let args = Array.map (fun o -> get_scalar regs o) argops in
      match callee with
      | Code.Direct fid ->
          let cf = m.code.Code.cfuncs.(fid) in
          let completion = Timing.exec th.timing ~ready:!ready ~mem_lat:4 it.Code.uops in
          let nf = new_frame cf ~ret_off:dst ~sp:th.sp in
          Array.iteri
            (fun i v ->
              let off, lanes = cf.Code.param_offs.(i) in
              for j = 0 to lanes - 1 do
                nf.regs.(off + j) <- v
              done;
              nf.ready.(off) <- completion)
            args;
          fr.pc <- fr.pc + 1 (* resume after the call on return *);
          (* arm a re-execution checkpoint at the outermost hardened call *)
          if m.cfg.reexec_retries > 0 && cf.Code.cf_hardened && th.ck = None then
            th.ck <-
              Some
                {
                  ck_cf = cf;
                  ck_args = args;
                  ck_ret_off = dst;
                  ck_sp = th.sp;
                  ck_caller = th.frames;
                  ck_out_len = Buffer.length m.output;
                  ck_frame = nf;
                  ck_log = [];
                  ck_log_len = 0;
                  ck_valid = true;
                  ck_tries = 0;
                };
          th.frames <- nf :: th.frames;
          next_pc := -1
      | Code.Builtin id -> (
          match exec_builtin m th fr id args dst dlanes with
          | Bdone -> ()
          | Bretry ->
              next_pc := fr.pc;
              continue_ := false
          | Bblock tid ->
              th.status <- Waiting tid;
              next_pc := fr.pc + 1;
              continue_ := false
          | Bbarrier addr ->
              th.status <- Waiting_barrier addr;
              next_pc := fr.pc + 1;
              continue_ := false
          | Breexec ->
              (* no-majority vote fell through every re-vote retry: roll
                 the thread back to its checkpoint, or fail-stop *)
              if reexec_rollback m th then next_pc := -1
              else raise (Trap Elzar_fatal)))
  | Code.Rcall_ind (fp, argops, dst, dlanes) ->
      let f = get_scalar regs fp in
      let fid = Int64.to_int (Int64.sub f Code.fnptr_base) in
      if f < Code.fnptr_base || fid >= Array.length m.code.Code.cfuncs then
        raise (Trap (Bad_callee f));
      let args = Array.map (fun o -> get_scalar regs o) argops in
      let cf = m.code.Code.cfuncs.(fid) in
      let completion = Timing.exec th.timing ~ready:!ready ~mem_lat:4 it.Code.uops in
      let nf = new_frame cf ~ret_off:dst ~sp:th.sp in
      Array.iteri
        (fun i v ->
          let off, lanes = cf.Code.param_offs.(i) in
          for j = 0 to lanes - 1 do
            nf.regs.(off + j) <- v
          done;
          nf.ready.(off) <- completion)
        args;
      ignore dlanes;
      fr.pc <- fr.pc + 1 (* resume after the call on return *);
      if m.cfg.reexec_retries > 0 && cf.Code.cf_hardened && th.ck = None then
        th.ck <-
          Some
            {
              ck_cf = cf;
              ck_args = args;
              ck_ret_off = dst;
              ck_sp = th.sp;
              ck_caller = th.frames;
              ck_out_len = Buffer.length m.output;
              ck_frame = nf;
              ck_log = [];
              ck_log_len = 0;
              ck_valid = true;
              ck_tries = 0;
            };
      th.frames <- nf :: th.frames;
      next_pc := -1
  | Code.Ratomic (op, d, a, x, w) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        let old = Memory.read m.mem ~width:w addr in
        let v = get_scalar regs x in
        let nv =
          match op with
          | Ir.Instr.Rmw_add -> Int64.add old v
          | Ir.Instr.Rmw_sub -> Int64.sub old v
          | Ir.Instr.Rmw_xchg -> v
          | Ir.Instr.Rmw_and -> Int64.logand old v
          | Ir.Instr.Rmw_or -> Int64.logor old v
        in
        ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr (Value.mask_of_width (w * 8) |> Int64.logand nv);
        regs.(d) <- old;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rcmpxchg (d, a, e, dv, w) -> (
      let addr = fix_addr (get_scalar regs a) in
      try
        let old = Memory.read m.mem ~width:w addr in
        if old = get_scalar regs e then begin
          ck_log_write m th ~width:w addr;
          Memory.write m.mem ~width:w addr (get_scalar regs dv)
        end;
        regs.(d) <- old;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rextract (d, v, l) -> regs.(d) <- get_lane regs v l
  | Code.Rinsert (d, n, v, l, s) ->
      for j = 0 to n - 1 do
        regs.(d + j) <- (if j = l then get_scalar regs s else get_lane regs v j)
      done
  | Code.Rbroadcast (d, n, s) ->
      let x = get_scalar regs s in
      for j = 0 to n - 1 do
        regs.(d + j) <- x
      done
  | Code.Rshuffle (d, n, v, perm) ->
      let tmp = Array.init n (fun j -> get_lane regs v j) in
      for j = 0 to n - 1 do
        regs.(d + j) <- tmp.(perm.(j))
      done
  | Code.Rptestz (d, v) ->
      let all_zero = ref true in
      (match v with
      | Code.Oslot (off, lanes) ->
          for j = 0 to lanes - 1 do
            if regs.(off + j) <> 0L then all_zero := false
          done
      | Code.Oconst a -> Array.iter (fun x -> if x <> 0L then all_zero := false) a);
      regs.(d) <- (if !all_zero then 1L else 0L)
  | Code.Rgather (d, n, w, a) -> (
      (* FPGA-checked gather: majority-vote the replicated address, load
         once, replicate (closes the extract window of vulnerability) *)
      let alanes = match a with Code.Oslot (_, l) -> l | Code.Oconst c -> Array.length c in
      let disagree = ref false in
      let a0 = get_lane regs a 0 in
      for j = 1 to alanes - 1 do
        if get_lane regs a j <> a0 then disagree := true
      done;
      let addr = fix_addr (majority4 ~n:alanes (fun j -> get_lane regs a j)) in
      if !disagree then note_recovered m;
      try
        let v = Memory.read m.mem ~width:w addr in
        for j = 0 to n - 1 do
          regs.(d + j) <- v
        done;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Rscatter (w, v, a) -> (
      let alanes = match a with Code.Oslot (_, l) -> l | Code.Oconst c -> Array.length c in
      let vlanes = match v with Code.Oslot (_, l) -> l | Code.Oconst c -> Array.length c in
      let disagree = ref false in
      let a0 = get_lane regs a 0 and v0 = get_lane regs v 0 in
      for j = 1 to alanes - 1 do
        if get_lane regs a j <> a0 then disagree := true
      done;
      for j = 1 to vlanes - 1 do
        if get_lane regs v j <> v0 then disagree := true
      done;
      let addr = fix_addr (majority4 ~n:alanes (fun j -> get_lane regs a j)) in
      let value = majority4 ~n:vlanes (fun j -> get_lane regs v j) in
      if !disagree then note_recovered m;
      try
        ck_log_write m th ~width:w addr;
        Memory.write m.mem ~width:w addr value;
        touch addr w
      with Memory.Fault x -> raise (Trap (Segfault x)))
  | Code.Tret o -> (
      let completion = Timing.exec th.timing ~ready:!ready ~mem_lat:4 it.Code.uops in
      let popped = fr in
      (* the checkpointed call completed: commit (drop) the checkpoint *)
      (match th.ck with
      | Some ck when ck.ck_frame == popped -> th.ck <- None
      | _ -> ());
      th.sp <- popped.saved_sp;
      th.frames <- List.tl th.frames;
      match th.frames with
      | [] ->
          finish_thread m th;
          continue_ := false;
          next_pc := -1
      | caller :: _ ->
          (match o with
          | Some v when popped.ret_off >= 0 ->
              let lanes = popped.cf.Code.ret_lanes in
              for j = 0 to lanes - 1 do
                caller.regs.(popped.ret_off + j) <- get_lane popped.regs v j
              done;
              caller.ready.(popped.ret_off) <- completion
          | _ -> ());
          next_pc := -1)
  | Code.Tbr target -> next_pc := target
  | Code.Tcondbr (c, t, e) ->
      let taken = get_scalar regs c <> 0L in
      let taken =
        if m.cf_divert then begin
          m.cf_divert <- false;
          mark_injected m "branch";
          not taken
        end
        else taken
      in
      next_pc := (if taken then t else e);
      branch_info := Some (taken, false)
  | Code.Tvbr (mask, t, e, r) ->
      let lanes = match mask with Code.Oslot (_, l) -> l | Code.Oconst c -> Array.length c in
      let all_true = ref true and all_false = ref true in
      for j = 0 to lanes - 1 do
        if get_lane regs mask j = 0L then all_true := false else all_false := false
      done;
      if !all_true then begin
        next_pc := t;
        branch_info := Some (true, false)
      end
      else if !all_false then begin
        next_pc := e;
        branch_info := Some (false, false)
      end
      else begin
        next_pc := r;
        branch_info := Some (true, true)
      end;
      (* control-flow fault: the front end retires the wrong successor —
         a unanimous mask goes the wrong way, a mixed mask jumps straight
         past the recovery edge (the §VII unprotected-control-flow case) *)
      if m.cf_divert then begin
        m.cf_divert <- false;
        mark_injected m "branch";
        next_pc := (if !all_true then e else t)
      end
  | Code.Tvbr_u (mask, t, e) ->
      (* unchecked AVX branch: hardware flags reflect lane 0 on a clean run;
         a mixed mask silently follows lane 0 (the Fig. 12 no-branch-checks
         configuration gives up mixed-outcome detection) *)
      let taken = get_lane regs mask 0 <> 0L in
      let taken =
        if m.cf_divert then begin
          m.cf_divert <- false;
          mark_injected m "branch";
          not taken
        end
        else taken
      in
      next_pc := (if taken then t else e);
      branch_info := Some (taken, false)
  | Code.Tunreachable -> raise (Trap Unreachable_executed));
  (* timing for plain instructions (calls/returns were timed inline) *)
  (match it.Code.op with
  | Code.Rcall _ | Code.Rcall_ind _ | Code.Tret _ -> ()
  | _ ->
      let completion =
        Timing.exec th.timing ~ready:!ready
          ~mem_lat:(if !mem_lat > 0 then !mem_lat else Cache.hit_latency)
          it.Code.uops
      in
      if it.Code.dst >= 0 then fr.ready.(it.Code.dst) <- completion;
      (match !branch_info with
      | Some (taken, force_miss) ->
          let miss = Branch_pred.record th.bpred ~pc:fr.pc ~taken in
          if miss || force_miss then begin
            ctr.Counters.branch_misses <- ctr.Counters.branch_misses + 1;
            Timing.mispredict th.timing ~resolved:completion
          end
      | None -> ()));
  (* fault injection (register-SEU stream; the other fault kinds are armed
     before the instruction executes, above) *)
  (if fl land Code.fl_inject <> 0 then
     match m.cfg.inject with
     | Some inj when inj.kind = Reg_flip ->
         m.inj_count <- m.inj_count + 1;
         if m.inj_count = inj.at then begin
           let dlanes = max it.Code.dlanes 1 in
           let flip lane bit =
             let off = it.Code.dst + (lane mod dlanes) in
             fr.regs.(off) <- Int64.logxor fr.regs.(off) (Int64.shift_left 1L (bit land 63))
           in
           flip inj.lane inj.bit;
           (match inj.second with
           | Some (l, b) ->
               let l, b =
                 second_flip ~dlanes ~lane:inj.lane ~bit:inj.bit ~lane2:l ~bit2:b
               in
               flip l b
           | None -> ());
           mark_injected m (class_of it.Code.op)
         end
     | Some _ -> ()
     | None -> if m.cfg.count_inject_sites then m.inj_count <- m.inj_count + 1);
  if !next_pc >= 0 then fr.pc <- !next_pc;
  !continue_ && th.status = Running

(* ---- closure-compiled (threaded-code) engine ---- *)

(* Return protocol of a compiled instruction closure:
   -  [r >= 0]: next pc in the same frame; the driver keeps the pc in a
      local and writes [fr.pc] back only when the quantum budget expires
      mid-frame.
   -  [k_switch]: the closure changed the frame stack (call / return /
      re-execution rollback) and already stored any resume pc; the driver
      re-fetches the innermost frame.
   -  [k_yield]: the thread left the Running state (block, lock retry,
      barrier, thread finished); the closure stored the resume pc. *)
let k_switch = -1
let k_yield = -2

let k_touch (th : thread) (addr : int64) : int =
  let lat = Cache.access th.cache addr in
  let ctr = th.ctr in
  ctr.Counters.l1_refs <- ctr.Counters.l1_refs + 1;
  if lat > Cache.hit_latency then ctr.Counters.l1_misses <- ctr.Counters.l1_misses + 1;
  lat

(* [k_touch] plus the armed memory-bit-flip check; only compiled into the
   memory-op closures of Mem_flip campaigns (mirrors [touch] in [step]). *)
let k_touch_flip (m : t) (th : thread) (cls : string) (width : int) (addr : int64) : int =
  let lat = k_touch th addr in
  if m.mem_flip_armed then begin
    m.mem_flip_armed <- false;
    match m.cfg.inject with
    | Some inj -> (
        let a = Int64.add addr (Int64.of_int (inj.bit lsr 3 mod max width 1)) in
        try
          let b = Memory.read m.mem ~width:1 a in
          Memory.write m.mem ~width:1 a
            (Int64.logxor b (Int64.of_int (1 lsl (inj.bit land 7))));
          mark_injected m cls
        with Memory.Fault _ -> ())
    | None -> ()
  end;
  lat

(* Armed address fault; only compiled into Addr_flip campaigns. *)
let k_fix_addr (m : t) (cls : string) (a : int64) : int64 =
  if m.addr_mask = 0L then a
  else begin
    let a' = Int64.logxor a m.addr_mask in
    m.addr_mask <- 0L;
    mark_injected m cls;
    a'
  end

(* ---- operand accessors specialized at compile time ----
   [lane_fn] keeps [get_lane]'s general wrap; [get_fn ~n] additionally
   drops the [mod lanes] when the operand covers all n lanes of the
   consumer.  Shared by the closure and block tiers. *)

let lane_fn (o : Code.rop) : int64 array -> int -> int64 =
  match o with
  | Code.Oconst a ->
      if Array.length a = 1 then fun _ _ -> a.(0)
      else
        let la = Array.length a in
        fun _ j -> a.(j mod la)
  | Code.Oslot (off, 1) -> fun regs _ -> regs.(off)
  | Code.Oslot (off, l) -> fun regs j -> regs.(off + (j mod l))

let get_fn ~(n : int) (o : Code.rop) : int64 array -> int -> int64 =
  match o with
  | Code.Oslot (off, l) when n > 0 && l >= n -> fun regs j -> regs.(off + j)
  | Code.Oconst a when n > 1 && Array.length a >= n -> fun _ j -> a.(j)
  | o -> lane_fn o

let scalar_fn (o : Code.rop) : int64 array -> int64 =
  match o with
  | Code.Oslot (off, _) -> fun regs -> regs.(off)
  | Code.Oconst a -> fun _ -> a.(0)

let rop_lanes = function
  | Code.Oslot (_, l) -> l
  | Code.Oconst a -> Array.length a

(* Readiness of an instruction's register inputs, specialized on the
   source count. *)
let ready_fn (srcs : int array) : frame -> int =
  match Array.length srcs with
  | 0 -> fun _ -> 0
  | 1 ->
      let s0 = srcs.(0) in
      fun fr -> fr.ready.(s0)
  | 2 ->
      let s0 = srcs.(0) and s1 = srcs.(1) in
      fun fr ->
        let a = fr.ready.(s0) and b = fr.ready.(s1) in
        if a > b then a else b
  | ns ->
      fun fr ->
        let r = ref 0 in
        let ra = fr.ready in
        for i = 0 to ns - 1 do
          if ra.(srcs.(i)) > !r then r := ra.(srcs.(i))
        done;
        !r

(* Compiles the operational body of one instruction — semantics, memory
   effects, timing epilogue — into a closure specialized on its operands,
   lane counts and the given hook flags: operand offsets and the
   [mod lanes] stride are resolved once, and the fault-injection /
   undo-log hooks are compiled in or dropped entirely instead of being
   re-examined on every dynamic instruction.  Both compiled tiers build
   on this: the closure tier passes its config-derived flags and a
   [Timing.exec] epilogue via [finish_plain]; the block tier's fused
   prefixes pass all-false flags (fusion eligibility guarantees the
   hooks could not fire) and a precompiled [Timing.exec_plan] epilogue.
   Semantics — including timing, counter and fault-stream order — mirror
   [step] exactly; the equivalence tests hold all engines to
   bit-identical results. *)
let compile_body (m : t) (cf : Code.cfunc) (pc : int) (it : Code.citem)
    ~(addr_faults : bool) ~(mem_faults : bool) ~(cf_faults : bool)
    ~(reexec_on : bool)
    ~(finish_plain : thread -> frame -> int -> int -> unit) :
    thread -> frame -> int -> int =
  let uops = it.Code.uops in
  let cls = class_of it.Code.op in
  let next = pc + 1 in
  let finish_branch th ready ~taken ~force_miss =
    let completion = Timing.exec th.timing ~ready ~mem_lat:Cache.hit_latency uops in
    let miss = Branch_pred.record th.bpred ~pc ~taken in
    if miss || force_miss then begin
      th.ctr.Counters.branch_misses <- th.ctr.Counters.branch_misses + 1;
      Timing.mispredict th.timing ~resolved:completion
    end
  in
  (* must run before the [th.frames] push: [ck_caller]/[ck_sp] capture the
     caller's state *)
  let arm_ckpt th (cfc : Code.cfunc) args cdst (nf : frame) =
    if th.ck = None then
      th.ck <-
        Some
          {
            ck_cf = cfc;
            ck_args = args;
            ck_ret_off = cdst;
            ck_sp = th.sp;
            ck_caller = th.frames;
            ck_out_len = Buffer.length m.output;
            ck_frame = nf;
            ck_log = [];
            ck_log_len = 0;
            ck_valid = true;
            ck_tries = 0;
          }
  in
  match it.Code.op with
    | Code.Rbinop (d, n, f, a, b) ->
        let ga = get_fn ~n a and gb = get_fn ~n b in
        if n = 1 then
          fun th fr ready ->
            (try fr.regs.(d) <- f (ga fr.regs 0) (gb fr.regs 0)
             with Value.Division_by_zero -> raise (Trap Div_by_zero));
            finish_plain th fr ready Cache.hit_latency;
            next
        else
          fun th fr ready ->
            let regs = fr.regs in
            (try
               for j = 0 to n - 1 do
                 regs.(d + j) <- f (ga regs j) (gb regs j)
               done
             with Value.Division_by_zero -> raise (Trap Div_by_zero));
            finish_plain th fr ready Cache.hit_latency;
            next
    | Code.Ricmp (d, n, p, tmask, a, b) ->
        let ga = get_fn ~n a and gb = get_fn ~n b in
        if n = 1 then
          fun th fr ready ->
            fr.regs.(d) <- (if p (ga fr.regs 0) (gb fr.regs 0) then tmask else 0L);
            finish_plain th fr ready Cache.hit_latency;
            next
        else
          fun th fr ready ->
            let regs = fr.regs in
            for j = 0 to n - 1 do
              regs.(d + j) <- (if p (ga regs j) (gb regs j) then tmask else 0L)
            done;
            finish_plain th fr ready Cache.hit_latency;
            next
    | Code.Rselect (d, n, c, a, b) ->
        let gc = get_fn ~n c and ga = get_fn ~n a and gb = get_fn ~n b in
        fun th fr ready ->
          let regs = fr.regs in
          for j = 0 to n - 1 do
            regs.(d + j) <- (if gc regs j <> 0L then ga regs j else gb regs j)
          done;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rcast (d, n, f, a) ->
        let ga = get_fn ~n a in
        if n = 1 then
          fun th fr ready ->
            fr.regs.(d) <- f (ga fr.regs 0);
            finish_plain th fr ready Cache.hit_latency;
            next
        else
          fun th fr ready ->
            let regs = fr.regs in
            for j = 0 to n - 1 do
              regs.(d + j) <- f (ga regs j)
            done;
            finish_plain th fr ready Cache.hit_latency;
            next
    | Code.Rmov (d, n, a) ->
        let ga = get_fn ~n a in
        if n = 1 then
          fun th fr ready ->
            fr.regs.(d) <- ga fr.regs 0;
            finish_plain th fr ready Cache.hit_latency;
            next
        else
          fun th fr ready ->
            let regs = fr.regs in
            for j = 0 to n - 1 do
              regs.(d + j) <- ga regs j
            done;
            finish_plain th fr ready Cache.hit_latency;
            next
    | Code.Rload (d, w, a) ->
        let ga = scalar_fn a in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              fr.regs.(d) <- Memory.read m.mem ~width:w addr;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rvload (d, n, w, a) ->
        let ga = scalar_fn a in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              let regs = fr.regs in
              for j = 0 to n - 1 do
                regs.(d + j) <-
                  Memory.read m.mem ~width:w (Int64.add addr (Int64.of_int (j * w)))
              done;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rstore (w, v, a) ->
        let ga = scalar_fn a and gv = scalar_fn v in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              if reexec_on then ck_log_write m th ~width:w addr;
              Memory.write m.mem ~width:w addr (gv fr.regs);
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rvstore (n, w, v, a) ->
        let ga = scalar_fn a and gv = get_fn ~n v in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              let regs = fr.regs in
              for j = 0 to n - 1 do
                let aj = Int64.add addr (Int64.of_int (j * w)) in
                if reexec_on then ck_log_write m th ~width:w aj;
                Memory.write m.mem ~width:w aj (gv regs j)
              done;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Ralloca (d, size) ->
        let sz = Int64.of_int (Memory.align16 size) in
        fun th fr ready ->
          th.sp <- Int64.sub th.sp sz;
          fr.regs.(d) <- th.sp;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rcall (Code.Direct fid, argops, cdst, _) ->
        let getters = Array.map scalar_fn argops in
        let nargs = Array.length getters in
        let cfc = m.code.Code.cfuncs.(fid) in
        let poffs = cfc.Code.param_offs in
        let arm = reexec_on && cfc.Code.cf_hardened in
        fun th fr ready ->
          let regs = fr.regs in
          let args = Array.make nargs 0L in
          for i = 0 to nargs - 1 do
            args.(i) <- getters.(i) regs
          done;
          let completion = Timing.exec th.timing ~ready ~mem_lat:4 uops in
          let nf = new_frame cfc ~ret_off:cdst ~sp:th.sp in
          for i = 0 to nargs - 1 do
            let off, lanes = poffs.(i) in
            for j = 0 to lanes - 1 do
              nf.regs.(off + j) <- args.(i)
            done;
            nf.ready.(off) <- completion
          done;
          fr.pc <- next;
          if arm then arm_ckpt th cfc args cdst nf;
          th.frames <- nf :: th.frames;
          k_switch
    | Code.Rcall (Code.Builtin id, argops, cdst, cdl) ->
        let getters = Array.map scalar_fn argops in
        let nargs = Array.length getters in
        fun th fr _ready ->
          let regs = fr.regs in
          let args = Array.make nargs 0L in
          for i = 0 to nargs - 1 do
            args.(i) <- getters.(i) regs
          done;
          (match exec_builtin m th fr id args cdst cdl with
          | Bdone -> next
          | Bretry ->
              fr.pc <- pc;
              k_yield
          | Bblock tid ->
              th.status <- Waiting tid;
              fr.pc <- next;
              k_yield
          | Bbarrier addr ->
              th.status <- Waiting_barrier addr;
              fr.pc <- next;
              k_yield
          | Breexec -> if reexec_rollback m th then k_switch else raise (Trap Elzar_fatal))
    | Code.Rcall_ind (fp, argops, cdst, _) ->
        let gfp = scalar_fn fp in
        let getters = Array.map scalar_fn argops in
        let nargs = Array.length getters in
        let nfuncs = Array.length m.code.Code.cfuncs in
        fun th fr ready ->
          let regs = fr.regs in
          let f = gfp regs in
          let fid = Int64.to_int (Int64.sub f Code.fnptr_base) in
          if f < Code.fnptr_base || fid >= nfuncs then raise (Trap (Bad_callee f));
          let args = Array.make nargs 0L in
          for i = 0 to nargs - 1 do
            args.(i) <- getters.(i) regs
          done;
          let cfc = m.code.Code.cfuncs.(fid) in
          let completion = Timing.exec th.timing ~ready ~mem_lat:4 uops in
          let nf = new_frame cfc ~ret_off:cdst ~sp:th.sp in
          let poffs = cfc.Code.param_offs in
          for i = 0 to nargs - 1 do
            let off, lanes = poffs.(i) in
            for j = 0 to lanes - 1 do
              nf.regs.(off + j) <- args.(i)
            done;
            nf.ready.(off) <- completion
          done;
          fr.pc <- next;
          if reexec_on && cfc.Code.cf_hardened then arm_ckpt th cfc args cdst nf;
          th.frames <- nf :: th.frames;
          k_switch
    | Code.Ratomic (op, d, a, x, w) ->
        let ga = scalar_fn a and gx = scalar_fn x in
        let fop =
          match op with
          | Ir.Instr.Rmw_add -> Int64.add
          | Ir.Instr.Rmw_sub -> Int64.sub
          | Ir.Instr.Rmw_xchg -> fun _ v -> v
          | Ir.Instr.Rmw_and -> Int64.logand
          | Ir.Instr.Rmw_or -> Int64.logor
        in
        let wmask = Value.mask_of_width (w * 8) in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              let old = Memory.read m.mem ~width:w addr in
              let nv = fop old (gx fr.regs) in
              if reexec_on then ck_log_write m th ~width:w addr;
              Memory.write m.mem ~width:w addr (Int64.logand nv wmask);
              fr.regs.(d) <- old;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rcmpxchg (d, a, e, dv, w) ->
        let ga = scalar_fn a and ge = scalar_fn e and gd = scalar_fn dv in
        fun th fr ready ->
          let addr = ga fr.regs in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let lat =
            try
              let old = Memory.read m.mem ~width:w addr in
              if old = ge fr.regs then begin
                if reexec_on then ck_log_write m th ~width:w addr;
                Memory.write m.mem ~width:w addr (gd fr.regs)
              end;
              fr.regs.(d) <- old;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rextract (d, v, l) ->
        let gv = lane_fn v in
        fun th fr ready ->
          fr.regs.(d) <- gv fr.regs l;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rinsert (d, n, v, l, s) ->
        let gv = get_fn ~n v and gs = scalar_fn s in
        fun th fr ready ->
          let regs = fr.regs in
          for j = 0 to n - 1 do
            regs.(d + j) <- (if j = l then gs regs else gv regs j)
          done;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rbroadcast (d, n, s) ->
        let gs = scalar_fn s in
        fun th fr ready ->
          let regs = fr.regs in
          let x = gs regs in
          for j = 0 to n - 1 do
            regs.(d + j) <- x
          done;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rshuffle (d, n, v, perm) ->
        let gv = get_fn ~n v in
        (* scratch reused across executions: machines run single-domain,
           and no closure is re-entered mid-instruction *)
        let tmp = Array.make n 0L in
        fun th fr ready ->
          let regs = fr.regs in
          for j = 0 to n - 1 do
            tmp.(j) <- gv regs j
          done;
          for j = 0 to n - 1 do
            regs.(d + j) <- tmp.(perm.(j))
          done;
          finish_plain th fr ready Cache.hit_latency;
          next
    | Code.Rptestz (d, v) -> (
        match v with
        | Code.Oslot (off, lanes) ->
            fun th fr ready ->
              let regs = fr.regs in
              let all_zero = ref true in
              for j = 0 to lanes - 1 do
                if regs.(off + j) <> 0L then all_zero := false
              done;
              regs.(d) <- (if !all_zero then 1L else 0L);
              finish_plain th fr ready Cache.hit_latency;
              next
        | Code.Oconst a ->
            let r = if Array.for_all (fun x -> x = 0L) a then 1L else 0L in
            fun th fr ready ->
              fr.regs.(d) <- r;
              finish_plain th fr ready Cache.hit_latency;
              next)
    | Code.Rgather (d, n, w, a) ->
        let alanes = rop_lanes a in
        let ga = lane_fn a in
        fun th fr ready ->
          let regs = fr.regs in
          let a0 = ga regs 0 in
          let disagree = ref false in
          for j = 1 to alanes - 1 do
            if ga regs j <> a0 then disagree := true
          done;
          let addr = if !disagree then majority4 ~n:alanes (fun j -> ga regs j) else a0 in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          if !disagree then note_recovered m;
          let lat =
            try
              let v = Memory.read m.mem ~width:w addr in
              for j = 0 to n - 1 do
                regs.(d + j) <- v
              done;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Rscatter (w, v, a) ->
        let alanes = rop_lanes a and vlanes = rop_lanes v in
        let ga = lane_fn a and gv = lane_fn v in
        fun th fr ready ->
          let regs = fr.regs in
          let a0 = ga regs 0 and v0 = gv regs 0 in
          let disagree = ref false in
          for j = 1 to alanes - 1 do
            if ga regs j <> a0 then disagree := true
          done;
          for j = 1 to vlanes - 1 do
            if gv regs j <> v0 then disagree := true
          done;
          let addr = if !disagree then majority4 ~n:alanes (fun j -> ga regs j) else a0 in
          let addr = if addr_faults then k_fix_addr m cls addr else addr in
          let value = if !disagree then majority4 ~n:vlanes (fun j -> gv regs j) else v0 in
          if !disagree then note_recovered m;
          let lat =
            try
              if reexec_on then ck_log_write m th ~width:w addr;
              Memory.write m.mem ~width:w addr value;
              if mem_faults then k_touch_flip m th cls w addr else k_touch th addr
            with Memory.Fault x -> raise (Trap (Segfault x))
          in
          finish_plain th fr ready lat;
          next
    | Code.Tret o ->
        let ret_fn = match o with Some v -> Some (lane_fn v) | None -> None in
        let ret_lanes = cf.Code.ret_lanes in
        fun th fr ready ->
          let completion = Timing.exec th.timing ~ready ~mem_lat:4 uops in
          (if reexec_on then
             (* the checkpointed call completed: commit (drop) the checkpoint *)
             match th.ck with
             | Some ck when ck.ck_frame == fr -> th.ck <- None
             | _ -> ());
          th.sp <- fr.saved_sp;
          th.frames <- List.tl th.frames;
          (match th.frames with
          | [] ->
              finish_thread m th;
              k_yield
          | caller :: _ ->
              (match ret_fn with
              | Some g when fr.ret_off >= 0 ->
                  let roff = fr.ret_off in
                  for j = 0 to ret_lanes - 1 do
                    caller.regs.(roff + j) <- g fr.regs j
                  done;
                  caller.ready.(roff) <- completion
              | _ -> ());
              k_switch)
    | Code.Tbr target ->
        fun th fr ready ->
          finish_plain th fr ready Cache.hit_latency;
          target
    | Code.Tcondbr (c, t, e) ->
        let gc = scalar_fn c in
        if cf_faults then
          fun th fr ready ->
            let taken = gc fr.regs <> 0L in
            let taken =
              if m.cf_divert then begin
                m.cf_divert <- false;
                mark_injected m "branch";
                not taken
              end
              else taken
            in
            finish_branch th ready ~taken ~force_miss:false;
            if taken then t else e
        else
          fun th fr ready ->
            let taken = gc fr.regs <> 0L in
            finish_branch th ready ~taken ~force_miss:false;
            if taken then t else e
    | Code.Tvbr (mask, t, e, r) ->
        let lanes = rop_lanes mask in
        let gm = get_fn ~n:lanes mask in
        fun th fr ready ->
          let regs = fr.regs in
          let all_true = ref true and all_false = ref true in
          for j = 0 to lanes - 1 do
            if gm regs j = 0L then all_true := false else all_false := false
          done;
          let at = !all_true and af = !all_false in
          let npc = if at then t else if af then e else r in
          let npc =
            if cf_faults && m.cf_divert then begin
              m.cf_divert <- false;
              mark_injected m "branch";
              if at then e else t
            end
            else npc
          in
          finish_branch th ready ~taken:(not af) ~force_miss:((not at) && not af);
          npc
    | Code.Tvbr_u (mask, t, e) ->
        let gm = lane_fn mask in
        fun th fr ready ->
          let taken = gm fr.regs 0 <> 0L in
          let taken =
            if cf_faults && m.cf_divert then begin
              m.cf_divert <- false;
              mark_injected m "branch";
              not taken
            end
            else taken
          in
          finish_branch th ready ~taken ~force_miss:false;
          if taken then t else e
    | Code.Tunreachable -> fun _ _ _ -> raise (Trap Unreachable_executed)

(* Compiles one instruction into its closure-tier form: [compile_body]
   with this config's hook flags and a [Timing.exec] epilogue, wrapped in
   the per-instruction bookkeeping (trace, instruction ceiling, counters,
   fault-site streams, optional profiling). *)
let compile_item (m : t) (cf : Code.cfunc) (pc : int) (it : Code.citem) :
    thread -> frame -> int =
  let cfg = m.cfg in
  let uops = it.Code.uops in
  let nuops = Array.length uops in
  let dst = it.Code.dst in
  let fl = it.Code.flags in
  let cls = class_of it.Code.op in
  let is_avx = fl land Code.fl_avx <> 0 in
  let is_load = fl land Code.fl_load <> 0 in
  let is_store = fl land Code.fl_store <> 0 in
  let is_branch = fl land Code.fl_branch <> 0 in
  let hardened = cf.Code.cf_hardened in
  let is_mem_site = hardened && (is_load || is_store) in
  let is_br_site =
    hardened
    && match it.Code.op with Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _ -> true | _ -> false
  in
  let reexec_on = cfg.reexec_retries > 0 in
  let addr_faults = match cfg.inject with Some i -> i.kind = Addr_flip | None -> false in
  let mem_faults = match cfg.inject with Some i -> i.kind = Mem_flip | None -> false in
  let cf_faults = match cfg.inject with Some i -> i.kind = Branch_flip | None -> false in
  let ready_of = ready_fn it.Code.srcs in
  (* timing epilogue shared by the plain-op bodies (same order as [step]) *)
  let finish_plain th (fr : frame) ready mem_lat =
    let completion = Timing.exec th.timing ~ready ~mem_lat uops in
    if dst >= 0 then fr.ready.(dst) <- completion
  in
  let body =
    compile_body m cf pc it ~addr_faults ~mem_faults ~cf_faults ~reexec_on
      ~finish_plain
  in
  (* per-instruction fault-site streams, compiled to hooks (or to nothing) *)
  let site_hook : (unit -> unit) option =
    match cfg.inject with
    | Some inj -> (
        match inj.kind with
        | Mem_flip when is_mem_site ->
            Some
              (fun () ->
                m.mem_count <- m.mem_count + 1;
                if m.mem_count = inj.at then m.mem_flip_armed <- true)
        | Addr_flip when is_mem_site ->
            let bmask = Int64.shift_left 1L (inj.bit land 63) in
            Some
              (fun () ->
                m.mem_count <- m.mem_count + 1;
                if m.mem_count = inj.at then m.addr_mask <- bmask)
        | Branch_flip when is_br_site ->
            Some
              (fun () ->
                m.br_count <- m.br_count + 1;
                if m.br_count = inj.at then m.cf_divert <- true)
        | _ -> None)
    | None ->
        if not cfg.count_inject_sites then None
        else if is_mem_site then Some (fun () -> m.mem_count <- m.mem_count + 1)
        else if is_br_site then Some (fun () -> m.br_count <- m.br_count + 1)
        else None
  in
  (* register-SEU stream: applied to the (caller) frame after the op body,
     exactly like [step]'s epilogue *)
  let reg_hook : (frame -> unit) option =
    if fl land Code.fl_inject = 0 then None
    else
      match cfg.inject with
      | Some inj when inj.kind = Reg_flip ->
          let dlanes = max it.Code.dlanes 1 in
          Some
            (fun fr ->
              m.inj_count <- m.inj_count + 1;
              if m.inj_count = inj.at then begin
                let flip lane bit =
                  let off = dst + (lane mod dlanes) in
                  fr.regs.(off) <-
                    Int64.logxor fr.regs.(off) (Int64.shift_left 1L (bit land 63))
                in
                flip inj.lane inj.bit;
                (match inj.second with
                | Some (l, b) ->
                    let l, b =
                      second_flip ~dlanes ~lane:inj.lane ~bit:inj.bit ~lane2:l ~bit2:b
                    in
                    flip l b
                | None -> ());
                mark_injected m cls
              end)
      | Some _ -> None
      | None ->
          if cfg.count_inject_sites then Some (fun _ -> m.inj_count <- m.inj_count + 1)
          else None
  in
  let trace_hook : (thread -> unit) option =
    match cfg.trace with
    | Some buf when Array.length cf.Code.texts > pc ->
        let text = cf.Code.texts.(pc) in
        let tag = if hardened then 'H' else '.' in
        let name = cf.Code.cf_name in
        Some
          (fun th ->
            if Buffer.length buf < 1_000_000 then
              Buffer.add_string buf (Printf.sprintf "T%d %c@%s+%d: %s\n" th.tid tag name pc text))
    | _ -> None
  in
  let max_instrs = cfg.max_instrs in
  let exec th fr =
    (match trace_hook with None -> () | Some h -> h th);
    m.total_instrs <- m.total_instrs + 1;
    if m.total_instrs > max_instrs then raise (Trap Hang);
    let ctr = th.ctr in
    ctr.Counters.instrs <- ctr.Counters.instrs + 1;
    ctr.Counters.uops <- ctr.Counters.uops + nuops;
    if is_avx then ctr.Counters.avx_instrs <- ctr.Counters.avx_instrs + 1;
    if is_load then ctr.Counters.loads <- ctr.Counters.loads + 1;
    if is_store then ctr.Counters.stores <- ctr.Counters.stores + 1;
    if is_branch then ctr.Counters.branches <- ctr.Counters.branches + 1;
    (match site_hook with None -> () | Some h -> h ());
    match reg_hook with
    | None -> body th fr (ready_of fr)
    | Some h ->
        let r = body th fr (ready_of fr) in
        h fr;
        r
  in
  (* per-class cycle attribution, like the other hooks compiled in only
     when enabled: with [profile = None] the closure is [exec] itself *)
  match cfg.profile with
  | None -> exec
  | Some prof ->
      fun th fr ->
        let c0 = Timing.cycle th.timing in
        let r = exec th fr in
        Profile.add prof cls ~cycles:(Timing.cycle th.timing - c0);
        r

(* Builds the closure table for every function: [kcode.(cf_id).(pc)] runs
   that instruction. *)
let kcompile (m : t) =
  m.kcode <-
    Array.map
      (fun (cf : Code.cfunc) ->
        Array.mapi (fun pc it -> compile_item m cf pc it) cf.Code.code)
      m.code.Code.cfuncs

(* ---- block-fused engine ---- *)

(* Superblock boundaries: control transfers, calls (including builtins)
   and returns end a block. *)
let is_ender (it : Code.citem) =
  match it.Code.op with
  | Code.Rcall _ | Code.Rcall_ind _ | Code.Tret _ | Code.Tbr _
  | Code.Tcondbr _ | Code.Tvbr _ | Code.Tvbr_u _ | Code.Tunreachable ->
      true
  | _ -> false

(* Leaders: every pc a control transfer can land on (or resume at after a
   call) starts a block.  The array has one extra slot so the
   past-the-last-ender mark needs no bounds check. *)
let leaders (cf : Code.cfunc) : bool array =
  let code = cf.Code.code in
  let n = Array.length code in
  let l = Array.make (n + 1) false in
  if n > 0 then l.(0) <- true;
  Array.iteri
    (fun pc it ->
      (match it.Code.op with
      | Code.Tbr t -> l.(t) <- true
      | Code.Tcondbr (_, t, e) ->
          l.(t) <- true;
          l.(e) <- true
      | Code.Tvbr (_, t, e, r) ->
          l.(t) <- true;
          l.(e) <- true;
          l.(r) <- true
      | Code.Tvbr_u (_, t, e) ->
          l.(t) <- true;
          l.(e) <- true
      | _ -> ());
      if is_ender it then l.(pc + 1) <- true)
    code;
  l

(* Deoptimization rules: a prefix instruction is fusable only if the
   closure tier would compile NO hook into it under this config, so the
   fused (hook-free) body is bit-identical by construction.  Armed
   mem/addr faults are applied and cleared by the very instruction whose
   site hook armed them, so instructions that are not sites of the
   injected kind can never observe an armed flag and fuse safely.
   Majority-vote ops ([Rgather]/[Rscatter]) are excluded whenever a fault
   is in flight: a recovery vote records detection latency against
   [total_instrs], which inside a fused block is bulk-updated. *)
let fusable (cfg : config) ~(hardened : bool) (it : Code.citem) : bool =
  let fl = it.Code.flags in
  let is_mem_site = hardened && fl land (Code.fl_load lor Code.fl_store) <> 0 in
  let is_reg_site = fl land Code.fl_inject <> 0 in
  let logs_stores =
    match it.Code.op with
    | Code.Rstore _ | Code.Rvstore _ | Code.Ratomic _ | Code.Rcmpxchg _
    | Code.Rscatter _ ->
        true
    | _ -> false
  in
  let votes =
    match it.Code.op with Code.Rgather _ | Code.Rscatter _ -> true | _ -> false
  in
  (match cfg.inject with
  | Some inj -> (
      (not votes)
      &&
      match inj.kind with
      | Reg_flip -> not is_reg_site
      | Mem_flip | Addr_flip -> not is_mem_site
      | Branch_flip -> true)
  | None -> (not cfg.count_inject_sites) || not (is_reg_site || is_mem_site))
  && ((not (cfg.reexec_retries > 0)) || not logs_stores)

(* One prefix instruction of a fused block: the [compile_body] semantics
   with every hook compiled out (fusion eligibility guarantees none could
   fire) and the precompiled static timing plan in place of the
   per-instance [Timing.exec] μop walk. *)
let compile_fused_step (m : t) (cf : Code.cfunc) (pc : int) (it : Code.citem) :
    (frame -> int) * (thread -> frame -> int -> int) =
  let dst = it.Code.dst in
  let plan = Timing.plan_of_uops it.Code.uops in
  let finish_plain th (fr : frame) ready mem_lat =
    let completion = Timing.exec_plan th.timing ~ready ~mem_lat plan in
    if dst >= 0 then fr.ready.(dst) <- completion
  in
  let body =
    compile_body m cf pc it ~addr_faults:false ~mem_faults:false
      ~cf_faults:false ~reexec_on:false ~finish_plain
  in
  (ready_fn it.Code.srcs, body)

(* Fuses the straight-line prefix [s .. s+plen-1] plus an optional
   trailing ender into one closure.  The prefix's counter deltas — its
   static cost summary — are precomputed and applied in bulk on entry; a
   mid-prefix trap retracts the unexecuted suffix so [total_instrs],
   counters and hence detection latency stay bit-identical with
   per-instruction execution (the trapping instruction itself counts,
   exactly as in [step]).  The ender runs through its regular
   per-instruction closure, keeping its own hooks, timing, prediction and
   control transfer intact.  Prefixes never contain branch instructions
   ([fl_branch] ops are all enders), so no branch counter is needed. *)
let compile_block (m : t) (cf : Code.cfunc)
    (kc : (thread -> frame -> int) array) (s : int) (plen : int)
    (ender : int option) : fblock =
  let code = cf.Code.code in
  (* suffix sums of the prefix's counter deltas, for trap retraction:
     [suf_X.(i)] covers prefix steps [i .. plen-1] *)
  let suf_uops = Array.make (plen + 1) 0 in
  let suf_avx = Array.make (plen + 1) 0 in
  let suf_loads = Array.make (plen + 1) 0 in
  let suf_stores = Array.make (plen + 1) 0 in
  for i = plen - 1 downto 0 do
    let it = code.(s + i) in
    let fl = it.Code.flags in
    suf_uops.(i) <- suf_uops.(i + 1) + Array.length it.Code.uops;
    suf_avx.(i) <- (suf_avx.(i + 1) + if fl land Code.fl_avx <> 0 then 1 else 0);
    suf_loads.(i) <- (suf_loads.(i + 1) + if fl land Code.fl_load <> 0 then 1 else 0);
    suf_stores.(i) <- (suf_stores.(i + 1) + if fl land Code.fl_store <> 0 then 1 else 0)
  done;
  let t_uops = suf_uops.(0) and t_avx = suf_avx.(0) in
  let t_loads = suf_loads.(0) and t_stores = suf_stores.(0) in
  let steps =
    Array.init plen (fun i -> compile_fused_step m cf (s + i) code.(s + i))
  in
  (* progress through the prefix, for trap retraction; machines run
     single-domain and blocks are never re-entered mid-flight *)
  let progress = ref plen in
  let tail : thread -> frame -> int =
    match ender with
    | Some e -> kc.(e)
    | None ->
        (* falls through into the next block *)
        let nxt = s + plen in
        fun _ _ -> nxt
  in
  let rec chain i (k : thread -> frame -> int) : thread -> frame -> int =
    if i < 0 then k
    else
      let ready_of, body = steps.(i) in
      chain (i - 1) (fun th fr ->
          progress := i;
          ignore (body th fr (ready_of fr) : int);
          k th fr)
  in
  let body =
    chain (plen - 1) (fun th fr ->
        progress := plen;
        tail th fr)
  in
  let fb_exec th fr =
    m.total_instrs <- m.total_instrs + plen;
    let ctr = th.ctr in
    ctr.Counters.instrs <- ctr.Counters.instrs + plen;
    ctr.Counters.uops <- ctr.Counters.uops + t_uops;
    if t_avx > 0 then ctr.Counters.avx_instrs <- ctr.Counters.avx_instrs + t_avx;
    if t_loads > 0 then ctr.Counters.loads <- ctr.Counters.loads + t_loads;
    if t_stores > 0 then ctr.Counters.stores <- ctr.Counters.stores + t_stores;
    try body th fr
    with Trap _ as ex ->
      let p = !progress in
      if p < plen then begin
        m.total_instrs <- m.total_instrs - (plen - p - 1);
        ctr.Counters.instrs <- ctr.Counters.instrs - (plen - p - 1);
        ctr.Counters.uops <- ctr.Counters.uops - suf_uops.(p + 1);
        ctr.Counters.avx_instrs <- ctr.Counters.avx_instrs - suf_avx.(p + 1);
        ctr.Counters.loads <- ctr.Counters.loads - suf_loads.(p + 1);
        ctr.Counters.stores <- ctr.Counters.stores - suf_stores.(p + 1)
      end;
      raise ex
  in
  { fb_len = (match ender with Some _ -> plen + 1 | None -> plen); fb_exec }

(* Builds the fused-block table: [kblocks.(cf_id).(pc)] is [Some b] iff a
   fused superblock starts at [pc] under this machine's config.  Tracing
   and profiling need per-instruction hooks everywhere, so they disable
   fusion wholesale; otherwise each maximal straight-line run whose
   instructions all satisfy [fusable] is fused.  Requires [kcode] (enders
   reuse the per-instruction closures). *)
let kcompile_blocks (m : t) =
  let cfg = m.cfg in
  let fuse = cfg.trace = None && cfg.profile = None in
  m.kblocks <-
    Array.map
      (fun (cf : Code.cfunc) ->
        let code = cf.Code.code in
        let n = Array.length code in
        let tbl = Array.make n None in
        if fuse && n > 0 then begin
          let l = leaders cf in
          let kc = m.kcode.(cf.Code.cf_id) in
          let hardened = cf.Code.cf_hardened in
          for s = 0 to n - 1 do
            if l.(s) && not (is_ender code.(s)) then begin
              let e = ref (s + 1) in
              while !e < n && (not (is_ender code.(!e))) && not l.(!e) do
                incr e
              done;
              let plen = !e - s in
              let ok = ref true in
              for j = s to !e - 1 do
                if not (fusable cfg ~hardened code.(j)) then ok := false
              done;
              if !ok && !e < n then
                if l.(!e) then tbl.(s) <- Some (compile_block m cf kc s plen None)
                else tbl.(s) <- Some (compile_block m cf kc s plen (Some !e))
            end
          done
        end;
        tbl)
      m.code.Code.cfuncs

(* ---- scheduler ---- *)

let quantum = 256

(* One scheduling quantum under the reference interpreter.  The traced and
   untraced loops are split so the common (untraced) path never examines
   [cfg.trace] per instruction. *)
let ref_quantum (m : t) (th : thread) =
  match m.cfg.trace with
  | None ->
      let continue_ = ref true in
      let k = ref 0 in
      while !continue_ && !k < quantum do
        incr k;
        continue_ := step m th
      done
  | Some buf ->
      let continue_ = ref true in
      let k = ref 0 in
      while !continue_ && !k < quantum do
        incr k;
        emit_trace buf th;
        continue_ := step m th
      done

(* One scheduling quantum under the closure engine.  The program counter
   lives in a local between closures; [fr.pc] is written back only when
   the quantum budget expires mid-frame (frame switches maintain it
   inline, per the closure return protocol). *)
let closure_quantum (m : t) (th : thread) =
  let budget = ref quantum in
  let running = ref true in
  while !running && !budget > 0 do
    let fr = List.hd th.frames in
    let code = m.kcode.(fr.cf.Code.cf_id) in
    let pc = ref fr.pc in
    let switched = ref false in
    while (not !switched) && !budget > 0 do
      let r = code.(!pc) th fr in
      decr budget;
      if r >= 0 then pc := r
      else begin
        switched := true;
        if r = k_yield then running := false
      end
    done;
    if not !switched then fr.pc <- !pc
  done

(* One scheduling quantum under the block engine.  At a fused block start
   the whole superblock runs as one closure and the budget is debited
   once by its dynamic length; everywhere else (deoptimized blocks,
   mid-block pcs after a budget expiry or snapshot restore, blocks longer
   than the remaining budget, the [max_instrs] ceiling) execution falls
   back to the per-instruction closures.  Quanta therefore end after
   exactly the same instruction counts as the other engines, preserving
   snapshot/abort/chaos boundary semantics, and the ceiling check
   guarantees [Hang] can never fire inside a fused block. *)
let block_quantum (m : t) (th : thread) =
  let max_instrs = m.cfg.max_instrs in
  let budget = ref quantum in
  let running = ref true in
  while !running && !budget > 0 do
    let fr = List.hd th.frames in
    let cfid = fr.cf.Code.cf_id in
    let code = m.kcode.(cfid) in
    let blocks = m.kblocks.(cfid) in
    let pc = ref fr.pc in
    let switched = ref false in
    while (not !switched) && !budget > 0 do
      let r =
        match blocks.(!pc) with
        | Some fb
          when fb.fb_len <= !budget
               && m.total_instrs + fb.fb_len <= max_instrs ->
            budget := !budget - fb.fb_len;
            fb.fb_exec th fr
        | _ ->
            decr budget;
            code.(!pc) th fr
      in
      if r >= 0 then pc := r
      else begin
        switched := true;
        if r = k_yield then running := false
      end
    done;
    if not !switched then fr.pc <- !pc
  done

let pick_next (m : t) : thread option =
  let best = ref None in
  List.iter
    (fun th ->
      if th.status = Running then
        match !best with
        | Some b when Timing.cycle b.timing <= Timing.cycle th.timing -> ()
        | _ -> best := Some th)
    m.threads;
  !best

let sync_counters (m : t) =
  List.iter
    (fun th ->
      if th.status <> Done then
        th.ctr.Counters.cycles <- Timing.cycle th.timing - th.start_cycle)
    m.threads

let make_result (m : t) (trap : trap_reason option) : result =
  sync_counters m;
  let threads = List.rev m.threads in
  let counters = List.map (fun th -> th.ctr) threads in
  let totals = List.fold_left Counters.add (Counters.create ()) counters in
  let wall =
    List.fold_left
      (fun acc th -> max acc (if th.status = Done then th.final_cycle else Timing.cycle th.timing))
      0 m.threads
  in
  let out = Buffer.contents m.output in
  {
    wall_cycles = wall;
    counters;
    totals;
    output_digest = Digest.string out;
    output_bytes = out;
    trap;
    recovered_faults = m.recovered;
    retried_faults = m.retried;
    reexecutions = m.reexecs;
    inject_sites = m.inj_count;
    mem_sites = m.mem_count;
    branch_sites = m.br_count;
    fault_injected = m.injected;
    inject_class = (if m.injected then Some m.inject_class else None);
    detect_latency =
      (if m.injected && m.detect_instr >= 0 then Some (m.detect_instr - m.inject_instr)
       else None);
  }

(* Drives the scheduler until every thread is done (or the machine traps),
   under the configured engine.  [on_quantum] fires after every scheduling
   quantum — the hook the fault campaign uses to capture snapshots at
   deterministic (quantum-boundary) points. *)
let resume ?on_quantum (m : t) : result =
  (match m.cfg.engine with
  | Reference -> ()
  | Closure -> if Array.length m.kcode = 0 then kcompile m
  | Block ->
      if Array.length m.kcode = 0 then kcompile m;
      if Array.length m.kblocks = 0 then kcompile_blocks m);
  let run_quantum =
    match m.cfg.engine with
    | Reference -> ref_quantum
    | Closure -> closure_quantum
    | Block -> block_quantum
  in
  (* chaos fires once, at the first quantum boundary of this drive; the
     abort hook is polled at every one.  Both raise out of [loop] — past
     the [Trap] handler below — so neither can be mistaken for an
     experiment outcome. *)
  let chaos_pending = ref (m.cfg.chaos <> None) in
  let rec loop () =
    match pick_next m with
    | Some th ->
        run_quantum m th;
        (match on_quantum with Some f -> f m | None -> ());
        if !chaos_pending then begin
          chaos_pending := false;
          match m.cfg.chaos with Some f -> f () | None -> ()
        end;
        (match m.cfg.abort with Some f when f () -> raise Abort | _ -> ());
        loop ()
    | None ->
        if List.for_all (fun th -> th.status = Done) m.threads then ()
        else begin
          (* waiting threads whose target has finished were woken eagerly;
             anything left is a deadlock *)
          List.iter
            (fun th ->
              match th.status with
              | Waiting tid -> (
                  match find_thread m tid with
                  | Some t when t.status = Done ->
                      th.status <- Running;
                      Timing.sync_to th.timing t.final_cycle
                  | _ -> ())
              | Waiting_barrier _ | Running | Done -> ())
            m.threads;
          if List.exists (fun th -> th.status = Running) m.threads then loop ()
          else raise (Trap Deadlock)
        end
  in
  match loop () with
  | () -> make_result m None
  | exception Trap r ->
      (* a trap is a detection event for latency purposes *)
      note_detect m;
      make_result m (Some r)

(* Runs [entry] with scalar [args] to completion of all threads. *)
let run ?(args = [||]) ?on_quantum (m : t) (entry : string) : result =
  let cf = Code.lookup m.code entry in
  ignore (spawn_thread m cf args ~start_cycle:0);
  resume ?on_quantum m

(* ---- machine snapshots (campaign fast-forward) ---- *)

(* A snapshot is a deep, self-contained copy of the architectural and
   micro-architectural state at a quantum boundary of a fault-free run.
   Memory is captured copy-on-write style: the first snapshot copies the
   whole image and turns on cumulative dirty-page journaling, later ones
   store only the pages dirtied since that base — so a chain of snapshots
   over a 64 MB address space costs one image plus the working set.
   [Code.t] and undo-log spines are immutable and shared. *)

type frame_snap = {
  f_cf : Code.cfunc;
  f_regs : int64 array;
  f_ready : int array;
  f_pc : int;
  f_ret_off : int;
  f_saved_sp : int64;
}

type ckpt_snap = {
  k_frame_idx : int;  (** position of [ck_frame] in the thread's frame list *)
  k_cf : Code.cfunc;
  k_args : int64 array;
  k_ret_off : int;
  k_sp : int64;
  k_out_len : int;
  k_log : (int64 * int * int64) list;
  k_log_len : int;
  k_valid : bool;
  k_tries : int;
}

type thread_snap = {
  t_tid : int;
  t_frames : frame_snap array;  (** innermost first *)
  t_timing : Timing.t;
  t_cache : Cache.t;
  t_bpred : Branch_pred.t;
  t_ctr : Counters.t;
  t_status : status;
  t_sp : int64;
  t_start_cycle : int;
  t_final_cycle : int;
  t_ck : ckpt_snap option;
}

type snapshot = {
  sn_code : Code.t;  (** immutable, shared with the source machine *)
  sn_base : Bytes.t;
  sn_pages : (int * Bytes.t) array;
  sn_meta : Memory.meta;
  sn_threads : thread_snap list;  (** in [m.threads] order *)
  sn_nthreads : int;
  sn_output : string;
  sn_allocs : (int64 * int) list;
  sn_total_instrs : int;
  sn_inj_count : int;
  sn_mem_count : int;
  sn_br_count : int;
  sn_recovered : int;
  sn_retried : int;
  sn_reexecs : int;
}

(* Fault-site counters consumed up to this snapshot, in the order
   (register sites, memory sites, branch sites) — what the campaign uses
   to pick the greatest snapshot strictly below an injection site. *)
let snapshot_sites (sn : snapshot) = (sn.sn_inj_count, sn.sn_mem_count, sn.sn_br_count)
let snapshot_instrs (sn : snapshot) = sn.sn_total_instrs

let snapshot (m : t) : snapshot =
  if m.injected then invalid_arg "Machine.snapshot: fault already injected";
  if Bytes.length m.snap_base = 0 then begin
    m.snap_base <- Bytes.copy m.mem.Memory.data;
    Memory.journal_start m.mem
  end;
  let snap_thread (th : thread) : thread_snap =
    let frames =
      Array.of_list
        (List.map
           (fun (fr : frame) ->
             {
               f_cf = fr.cf;
               f_regs = Array.copy fr.regs;
               f_ready = Array.copy fr.ready;
               f_pc = fr.pc;
               f_ret_off = fr.ret_off;
               f_saved_sp = fr.saved_sp;
             })
           th.frames)
    in
    let ck =
      match th.ck with
      | None -> None
      | Some ck ->
          (* [ck_frame] is physically in [th.frames] whenever a checkpoint
             is live, so the identity survives as a list index *)
          let idx = ref (-1) in
          List.iteri (fun i f -> if f == ck.ck_frame then idx := i) th.frames;
          if !idx < 0 then invalid_arg "Machine.snapshot: detached checkpoint frame";
          Some
            {
              k_frame_idx = !idx;
              k_cf = ck.ck_cf;
              k_args = Array.copy ck.ck_args;
              k_ret_off = ck.ck_ret_off;
              k_sp = ck.ck_sp;
              k_out_len = ck.ck_out_len;
              k_log = ck.ck_log;  (* immutable spine and cells *)
              k_log_len = ck.ck_log_len;
              k_valid = ck.ck_valid;
              k_tries = ck.ck_tries;
            }
    in
    {
      t_tid = th.tid;
      t_frames = frames;
      t_timing = Timing.copy th.timing;
      t_cache = Cache.copy th.cache;
      t_bpred = Branch_pred.copy th.bpred;
      t_ctr = Counters.copy th.ctr;
      t_status = th.status;
      t_sp = th.sp;
      t_start_cycle = th.start_cycle;
      t_final_cycle = th.final_cycle;
      t_ck = ck;
    }
  in
  {
    sn_code = m.code;
    sn_base = m.snap_base;
    sn_pages = Memory.journal_capture m.mem;
    sn_meta = Memory.meta m.mem;
    sn_threads = List.map snap_thread m.threads;
    sn_nthreads = m.nthreads;
    sn_output = Buffer.contents m.output;
    sn_allocs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.alloc_sizes [];
    sn_total_instrs = m.total_instrs;
    sn_inj_count = m.inj_count;
    sn_mem_count = m.mem_count;
    sn_br_count = m.br_count;
    sn_recovered = m.recovered;
    sn_retried = m.retried;
    sn_reexecs = m.reexecs;
  }

let rec list_drop n l = if n <= 0 then l else list_drop (n - 1) (List.tl l)

(* Rebuilds a runnable machine from [sn] under [cfg] (typically a config
   that arms an injection).  The restored machine continues with [resume].
   Fault-site counters keep their snapshot values, so a plan drawn against
   the full golden run stays valid: site number k still fires at the same
   dynamic instruction. *)
(* Per-domain memory pool for [restore ~reuse:true]: the last restored
   run's memory, re-imaged in place (dirty pages reverted against the
   shared base) instead of re-copying the whole image for every
   experiment.  Keyed by physical identity of the base image, so a
   snapshot chain from a different golden run falls back to a fresh
   copy. *)
let mem_pool : (Bytes.t * Memory.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let restore ?(cfg = default_config) ?(reuse = false) (sn : snapshot) : t =
  let mem =
    let pool = Domain.DLS.get mem_pool in
    match !pool with
    | Some (base, pm) when reuse && base == sn.sn_base ->
        Memory.reimage pm ~base ~pages:sn.sn_pages sn.sn_meta;
        pm
    | _ ->
        let fresh = Memory.of_image ~base:sn.sn_base ~pages:sn.sn_pages sn.sn_meta in
        if reuse then pool := Some (sn.sn_base, fresh);
        fresh
  in
  let alloc_sizes = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace alloc_sizes k v) sn.sn_allocs;
  let m =
    {
      code = sn.sn_code;
      mem;
      threads = [];
      by_tid = [||];
      kcode = [||];
      kblocks = [||];
      snap_base = Bytes.empty;
      nthreads = sn.sn_nthreads;
      output = Buffer.create (String.length sn.sn_output + 256);
      alloc_sizes;
      cfg;
      total_instrs = sn.sn_total_instrs;
      inj_count = sn.sn_inj_count;
      mem_count = sn.sn_mem_count;
      br_count = sn.sn_br_count;
      injected = false;
      recovered = sn.sn_recovered;
      retried = sn.sn_retried;
      reexecs = sn.sn_reexecs;
      addr_mask = 0L;
      mem_flip_armed = false;
      cf_divert = false;
      inject_instr = -1;
      detect_instr = -1;
      inject_class = "";
    }
  in
  Buffer.add_string m.output sn.sn_output;
  let restore_thread (ts : thread_snap) : thread =
    let frames =
      Array.to_list
        (Array.map
           (fun fs ->
             {
               cf = fs.f_cf;
               regs = Array.copy fs.f_regs;
               ready = Array.copy fs.f_ready;
               pc = fs.f_pc;
               ret_off = fs.f_ret_off;
               saved_sp = fs.f_saved_sp;
             })
           ts.t_frames)
    in
    let ck =
      match ts.t_ck with
      | None -> None
      | Some k ->
          Some
            {
              ck_cf = k.k_cf;
              ck_args = Array.copy k.k_args;
              ck_ret_off = k.k_ret_off;
              ck_sp = k.k_sp;
              ck_caller = list_drop (k.k_frame_idx + 1) frames;
              ck_out_len = k.k_out_len;
              ck_frame = List.nth frames k.k_frame_idx;
              ck_log = k.k_log;
              ck_log_len = k.k_log_len;
              ck_valid = k.k_valid;
              ck_tries = k.k_tries;
            }
    in
    {
      tid = ts.t_tid;
      frames;
      timing = Timing.copy ts.t_timing;
      cache = Cache.copy ts.t_cache;
      bpred = Branch_pred.copy ts.t_bpred;
      ctr = Counters.copy ts.t_ctr;
      status = ts.t_status;
      sp = ts.t_sp;
      start_cycle = ts.t_start_cycle;
      final_cycle = ts.t_final_cycle;
      ck;
    }
  in
  m.threads <- List.map restore_thread sn.sn_threads;
  (match m.threads with
  | [] -> ()
  | any :: _ ->
      let by_tid = Array.make (max m.nthreads 1) any in
      List.iter (fun th -> by_tid.(th.tid) <- th) m.threads;
      m.by_tid <- by_tid);
  m

(* Convenience: build, run, and return the result in one call. *)
let run_module ?(cfg = default_config) ?(flags_cmp = false) ?(args = [||])
    (modul : Ir.Instr.modul) (entry : string) : result =
  let m = create ~cfg ~flags_cmp modul in
  run ~args m entry
