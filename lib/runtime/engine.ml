(* The Olden runtime: a deterministic discrete-event simulation of SPMD
   execution with computation migration, software caching, futures, and
   future stealing.

   Each simulated thread is an OCaml fiber.  Performing an effect hands
   control to the handler below, which charges costs to the simulated
   machine and either resumes the fiber immediately (local work, cache
   accesses) or captures the continuation and schedules its resumption
   elsewhere / later (migrations, return stubs, touches of unresolved
   futures).  A processor left idle by an outgoing migration pops the most
   recent continuation from its own work list — Olden's future stealing.

   Scheduling is by globally minimal start time, with sequence numbers
   breaking ties, so a run is a pure function of the program and the
   configuration ([Scheduler] holds the run queues and the pick
   structure). *)

module C = Olden_config
module Cache = Olden_cache.Cache_system
module Write_log = Olden_cache.Write_log
module Trace = Olden_trace.Trace
module Span = Olden_span.Span
module Monitor = Olden_monitor.Monitor
module Recovery = Olden_recovery.Recovery
module Failover = Olden_recovery.Failover
open Effects

exception Null_dereference of string
exception Deadlock of string

exception Threads_lost of string
(* A processor fail-stopped with unreplicated resident work
   ([replica_spec.threads = false]): the tasks are unrecoverable, so the
   run aborts with a deterministic report instead of wedging. *)

exception Must_perform
(* Raised — with [raise_notrace], before any state is mutated — by the
   immediate-path operation bodies when the operation must capture the
   current fiber (a migration or a park on an unresolved future), so the
   caller falls back to performing the effect. *)

type task = { thread : thread; go : unit -> unit }

type phase_mark = { pname : string; at : int; snapshot : Stats.t }

type t = {
  cfg : C.t;
  machine : Machine.t;
  memory : Memory.t;
  cache : Cache.t;
  recovery : Recovery.t option; (* Some iff a fault schedule is active *)
  failover : Failover.t option; (* Some iff a fault schedule is active *)
  sched : task Scheduler.t; (* run queues and the pick heap *)
  mutable seq : int;
  mutable cur_proc : int;
  mutable cur_thread : thread;
  mutable next_tid : int;
  mutable next_fid : int;
  mutable blocked : int; (* parked touch waiters *)
  mutable parked : (int * string) list;
      (* (processor, label) per parked waiter — deadlock diagnostics *)
  mutable phases : phase_mark list; (* newest first *)
  mutable finished : bool;
  trace : Trace.t;
  span : Span.t;
  monitor : Monitor.t option;
      (* the run's observability ([Machine.obs]), held in parts so a hot
         guard is one field read *)
}

let build cfg (obs : Obs.t) =
  let machine = Machine.create ~obs cfg in
  let memory = Memory.create ~nprocs:cfg.C.nprocs in
  let cache = Cache.create cfg machine memory in
  let dummy_thread = { tid = 0; seat = 0; log = Write_log.create () } in
  {
    cfg;
    machine;
    memory;
    cache;
    recovery =
      (* crash machinery exists whenever faults do, so tests can force
         crashes under any schedule; with [crash = 0] it decides nothing
         and consumes no randomness, keeping zero-probability runs
         bit-identical to fault-free ones *)
      (if cfg.C.faults <> None then Some (Recovery.create cfg machine cache)
       else None);
    failover =
      (* same deal as [recovery]: the fail-stop machinery exists whenever
         faults do (tests force deaths under any schedule); with
         [failstop = 0] it decides nothing and consumes no randomness *)
      (if cfg.C.faults <> None then
         Some (Failover.create cfg machine cache memory)
       else None);
    sched = Scheduler.create ~nprocs:cfg.C.nprocs ~now:(Machine.now machine);
    seq = 0;
    cur_proc = 0;
    cur_thread = dummy_thread;
    next_tid = 1;
    next_fid = 0;
    blocked = 0;
    parked = [];
    phases = [];
    finished = false;
    trace = obs.trace;
    span = obs.span;
    monitor = obs.monitor;
  }

let create ?(obs = Obs.none) cfg =
  let nprocs = cfg.C.nprocs in
  match obs.Obs.monitor_interval with
  | None -> build cfg (Obs.start obs ~nprocs ~monitor:None)
  | Some interval ->
      (* the monitor samples this engine's machine and recovery layer,
         which themselves record into it: its probe reaches them through
         [self], set before the first window closes *)
      let self = ref None in
      let part f () = f (Option.get !self) in
      let probe =
        {
          Monitor.stats =
            part (fun t -> Stats.fields (Machine.stats t.machine));
          busy = part (fun t -> Machine.busy_cycles t.machine);
          comm = part (fun t -> Machine.comm_cycles t.machine);
          recovery_stall =
            part (fun t ->
                match t.recovery with
                | Some r -> Recovery.stall_cycles r
                | None -> Array.make nprocs 0);
        }
      in
      let monitor = Monitor.create ~interval ~nprocs ~probe in
      let t = build cfg (Obs.start obs ~nprocs ~monitor:(Some monitor)) in
      self := Some t;
      t

let memory t = t.memory
let machine t = t.machine
let cache t = t.cache
let recovery t = t.recovery
let failover t = t.failover
let config t = t.cfg
let obs t = Machine.obs t.machine
let monitor t = t.monitor
let stats t = Machine.stats t.machine
let costs t = t.cfg.C.costs

let new_thread t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  (* a fresh thread sits where its creator (virtually) sits: a future's
     parent continuation spawned after a collapsed hop must keep
     reporting the original owner as SELF, exactly like the fault-free
     run *)
  { tid; seat = t.cur_thread.seat; log = Write_log.create () }

let next_seq t =
  t.seq <- t.seq + 1;
  t.seq

(* Schedule a task, and save a future continuation on a work list. *)
let schedule_event t ~proc ~ready_at task =
  Scheduler.push_event t.sched ~proc ~ready_at ~seq:(next_seq t) task

let push_work t ~proc task =
  Scheduler.push_work t.sched ~proc ~pushed_at:(Machine.now t.machine proc)
    ~seq:(next_seq t) task

let now t = Machine.now t.machine t.cur_proc
let advance t cycles = Machine.advance t.machine t.cur_proc cycles

(* A dereference episode that entered at [ep0] completed now, into the
   run's monitor. *)
let monitor_deref t ~sid ~mech ~ep0 =
  match t.monitor with
  | Some m -> Monitor.deref_in m ~sid ~mech ~cycles:(now t - ep0)
  | None -> ()

(* Structured event emission (Olden_trace).  Every call site is guarded
   on [Trace.on t.trace] so nothing is allocated when the run has no
   trace sink. *)
let emit t ?(site = -1) kind =
  Trace.emit t.trace
    { Trace.time = now t; proc = t.cur_proc; tid = t.cur_thread.tid; site;
      kind }

(* A toucher acquiring a result resolved on another processor must not see
   stale copies of what the resolver wrote: the same invalidation applies
   as when a thread returns (Section 3.2). *)
let acquire_result t ~proc ~(toucher : thread) (cell : fut) =
  match cell.resolver_log with
  | Some log ->
      (* seats, not just physical processors: after a failover the
         resolver and toucher can share a processor while the protocol
         still places them at different virtual locations, and the
         invalidation must fire exactly as it would have between the
         original processors (on a healthy machine seat = processor, so
         the second test adds nothing) *)
      if cell.resolver_proc <> proc || cell.resolver_seat <> toucher.seat
      then Cache.on_return_received t.cache ~proc ~log;
      (* the resolver's writes become part of the toucher's causal past:
         a later release by the toucher must cover them too *)
      Write_log.absorb_written_procs toucher.log ~from:log
  | None -> ()

let remove_parked parked ~proc ~label =
  let rec go = function
    | [] -> []
    | (p, l) :: rest when p = proc && String.equal l label -> rest
    | entry :: rest -> entry :: go rest
  in
  go parked

(* Resolve a future: a release point for the resolving thread (its writes
   become visible through the cell), then wake every parked toucher on its
   own processor (remote wakeups pay a notification latency). *)
let resolve t (cell : fut) v =
  match cell.state with
  | Done _ -> failwith "Engine: future resolved twice"
  | Pending waiters ->
      cell.state <- Done v;
      if Trace.on t.trace then
        emit t
          (Trace.Future_resolve
             { fid = cell.fid; waiters = List.length waiters });
      Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:t.cur_thread.log;
      cell.resolver_proc <- t.cur_proc;
      cell.resolver_seat <- t.cur_thread.seat;
      cell.resolver_log <- Some t.cur_thread.log;
      let c = costs t in
      List.iter
        (fun w ->
          t.blocked <- t.blocked - 1;
          (* a waiter parked on a processor that has since fail-stopped
             wakes on its promoted successor (where its work list and
             parked-entry bookkeeping moved); the home map is the
             identity until a failover, so this resolves to [wproc]
             itself on a healthy machine *)
          let wdest =
            if Machine.is_dead t.machine w.wproc then
              Machine.home_of t.machine w.wproc
            else w.wproc
          in
          t.parked <- remove_parked t.parked ~proc:wdest ~label:w.wlabel;
          let delay = if wdest <> t.cur_proc then c.C.net_latency else 0 in
          schedule_event t ~proc:wdest ~ready_at:(now t + delay)
            {
              thread = w.wthread;
              go =
                (fun () ->
                  (* [t.cur_proc], not the captured destination: the
                     event may have been re-homed again while queued *)
                  acquire_result t ~proc:t.cur_proc ~toucher:w.wthread cell;
                  Effect.Deep.continue w.wk v);
            })
        (List.rev waiters)

(* Effective mechanism at a site, after the policy override (Table 2's
   migrate-only column; cache-only ablation). *)
let effective_mechanism t (site : Site.t) =
  match t.cfg.C.policy with
  | C.Heuristic -> site.Site.mech
  | C.Migrate_only -> C.Migrate
  | C.Cache_only -> C.Cache

(* Crash boundary: consult the recovery layer before an operation touches
   the cache (and when a migrated or returning thread arrives).  Firing
   *before* the operation is what makes replay safe: a store is never
   double-applied and a load never reads a wiped frame — the dereference
   simply runs against the empty table and refetches through the normal
   miss path. *)
let check_crash t ~proc ~(thread : thread) =
  match t.recovery with
  | None -> ()
  | Some r -> ignore (Recovery.maybe_crash r ~proc ~log:thread.log)

(* Suspend the current fiber and ship it to [target]: a computation
   migration.  [on_arrival] completes the interrupted operation there.
   [penalty] is the extra arrival latency charged by the faulty network
   (retransmission waits and delivery delays); zero on a reliable one. *)
let migrate_to t ~site ~target ~vseat ~penalty ~ep0
    ~(k : ('a, unit) Effect.Deep.continuation) ~(complete : unit -> 'a) =
  let c = costs t in
  let s = stats t in
  s.Stats.migrations <- s.Stats.migrations + 1;
  let thread = t.cur_thread in
  let source = t.cur_proc in
  (* an outgoing migration is a release point *)
  Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:thread.log;
  advance t c.C.migrate_send;
  if Trace.on t.trace then emit t ~site (Trace.Migrate_send { target });
  Machine.count_bytes t.machine 256 (* registers + PC + frame *);
  let send_done = now t in
  let ready_at = send_done + c.C.net_latency + penalty in
  (* the trace context crosses the wire inside the scheduled closure:
     saved here, restored when the state arrives, so the hops at the
     target join this episode's tree.  The hop intervals telescope —
     send [ep0, send_done], wire, penalty, queue, replay, recv, service —
     so their durations sum exactly to the episode latency. *)
  let sctx =
    if Span.on t.span then begin
      Span.child_in t.span ~kind:Span.Send ~proc:source ~t0:ep0 ~t1:send_done
        ~a:target ~b:0;
      Span.child_in t.span ~kind:Span.Wire ~proc:source ~t0:send_done
        ~t1:(send_done + c.C.net_latency) ~a:0 ~b:0;
      if penalty > 0 then
        Span.child_in t.span ~kind:Span.Penalty ~proc:target
          ~t0:(send_done + c.C.net_latency) ~t1:ready_at ~a:penalty ~b:0;
      Span.save t.span
    end
    else Span.no_ctx
  in
  schedule_event t ~proc:target ~ready_at
    {
      thread;
      go =
        (fun () ->
          (* not the captured target: if the target fail-stopped while
             the state was in flight, this event was re-homed and now
             runs on the promoted successor's clock *)
          let target = t.cur_proc in
          let span_on = Span.on t.span in
          let t_arr = Machine.now t.machine target in
          if span_on then begin
            Span.restore t.span sctx;
            if t_arr > ready_at then
              Span.child_in t.span ~kind:Span.Queue ~proc:target ~t0:ready_at
                ~t1:t_arr ~a:0 ~b:0
          end;
          (* the target may have crashed while the state was in flight:
             recover first, then install — the transfer itself survives
             (it is retried network state, not victim cache state) *)
          check_crash t ~proc:target ~thread;
          let t_rc = Machine.now t.machine target in
          if span_on && t_rc > t_arr then
            Span.child_in t.span ~kind:Span.Replay ~proc:target ~t0:t_arr
              ~t1:t_rc ~a:0 ~b:0;
          Machine.advance t.machine target c.C.migrate_recv;
          if Trace.on t.trace then
            Trace.emit t.trace
              { Trace.time = Machine.now t.machine target; proc = target;
                tid = thread.tid; site;
                kind = Trace.Migrate_arrive { source } };
          (* an incoming migration is an acquire point *)
          Cache.on_migration_received t.cache ~proc:target;
          (* the thread now sits at the page's (virtual) home: the
             original owner, even when a failover routed the state to
             the owner's promoted successor *)
          thread.seat <- vseat;
          let t_recv = Machine.now t.machine target in
          if span_on then
            Span.child_in t.span ~kind:Span.Recv ~proc:target ~t0:t_rc
              ~t1:t_recv ~a:0 ~b:0;
          (match t.monitor with
          | Some m ->
              (* episode entry ([ep0]) to restart here: the migration leg *)
              Monitor.migration m ~cycles:(Machine.now t.machine target - ep0)
          | None -> ());
          let v = complete () in
          if span_on then
            Span.child_in t.span ~kind:Span.Service ~proc:target ~t0:t_recv
              ~t1:(Machine.now t.machine target) ~a:0 ~b:0;
          (* entry to completion of the interrupted dereference *)
          monitor_deref t ~sid:site ~mech:Monitor.Migrate ~ep0;
          if span_on then
            Span.close_root t.span
              ~t1:(Machine.now t.machine target)
              ~a:site ~b:2 (* mech code: migrate *);
          Effect.Deep.continue k v);
    }

(* --- Immediate operation bodies ------------------------------------ *)

(* Everything below runs to completion without capturing the fiber, so it
   is shared between the effect handler and the fast-path entry points
   [Ops] uses to bypass effect dispatch entirely (a [perform] allocates
   the effect constructor and crosses the handler boundary; a cache hit
   should cost neither).  Each body either finishes the operation or
   raises [Must_perform] before mutating anything. *)

let immediate_work t n = advance t n

let immediate_alloc t ~proc words =
  let c = costs t in
  (* ALLOC needs no round trip even for a remote processor: each
     allocator owns chunks of every heap section, so the address is
     computed locally (Section 2's ALLOC library routine). *)
  if Machine.home_of t.machine proc = t.cur_proc then advance t c.C.alloc_local
  else begin
    (stats t).Stats.remote_allocs <- (stats t).Stats.remote_allocs + 1;
    advance t (c.C.alloc_local + c.C.alloc_service);
    if Trace.on t.trace then emit t (Trace.Remote_alloc { home = proc; words })
  end;
  Memory.alloc t.memory ~proc words

(* A dereference through the software cache: the body of the [C.Cache]
   arms below, also the degraded path a migration falls back to when its
   home keeps dropping thread transfers. *)
let cached_load t (site : Site.t) g field =
  site.Site.loads <- site.Site.loads + 1;
  if Gptr.proc g <> t.cur_proc then
    site.Site.remote <- site.Site.remote + 1;
  if Trace.on t.trace then begin
    Trace.set_thread t.trace t.cur_thread.tid;
    Trace.set_site t.trace site.Site.sid
  end;
  let s = stats t in
  let before = s.Stats.cache_misses in
  let retries_before = s.Stats.retries in
  let v = Cache.read t.cache ~proc:t.cur_proc g ~field in
  site.Site.misses <- site.Site.misses + s.Stats.cache_misses - before;
  site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before;
  v

let cached_store t (site : Site.t) g field v =
  site.Site.stores <- site.Site.stores + 1;
  if Gptr.proc g <> t.cur_proc then
    site.Site.remote <- site.Site.remote + 1;
  if Trace.on t.trace then begin
    Trace.set_thread t.trace t.cur_thread.tid;
    Trace.set_site t.trace site.Site.sid
  end;
  let s = stats t in
  let retries_before = s.Stats.retries in
  Cache.write t.cache ~proc:t.cur_proc g ~field v ~log:t.cur_thread.log;
  site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before

(* A migration whose source and home-map-resolved target are the same
   physical processor: the thread already sits on the successor that
   adopted the page's home, so no state crosses the network — but the
   protocol's release/acquire pair must still fire.  Under the local and
   bilateral schemes the acquire (cache flush / suspect-all) is what
   invalidates stale cached copies, and under the global scheme the
   release is what pushes the thread's pending invalidations; skipping
   them just because a death collapsed the hop would let surviving
   processors read pre-failover snapshots.  Fault-free runs never reach
   here: the home map is the identity, so a local access always finds
   [seat = Gptr.proc g]. *)
let collapsed_hop t ~seat =
  Cache.on_migration_sent t.cache ~proc:t.cur_proc ~log:t.cur_thread.log;
  Cache.on_migration_received t.cache ~proc:t.cur_proc;
  t.cur_thread.seat <- seat

let immediate_load_u t (site : Site.t) g field =
  if Gptr.is_null g then raise (Null_dereference (Site.name site));
  let c = costs t in
  if t.cfg.C.sequential then begin
    site.Site.loads <- site.Site.loads + 1;
    advance t c.C.local_ref;
    Memory.load t.memory g field
  end
  else begin
    check_crash t ~proc:t.cur_proc ~thread:t.cur_thread;
    match effective_mechanism t site with
    | C.Cache -> cached_load t site g field
    | C.Migrate ->
        (* the locality test reads through the home map: pages whose
           home fail-stopped over to *this* processor are local now
           (identity until a failover, so fault-free behaviour is
           untouched) *)
        let home = Gptr.proc g in
        if Machine.home_of t.machine home = t.cur_proc then begin
          if t.cur_thread.seat <> home then collapsed_hop t ~seat:home;
          site.Site.loads <- site.Site.loads + 1;
          advance t c.C.pointer_test;
          advance t c.C.local_ref;
          (stats t).Stats.local_refs <- (stats t).Stats.local_refs + 1;
          Memory.load t.memory g field
        end
        else raise_notrace Must_perform
  end

let immediate_store_u t (site : Site.t) g field v =
  if Gptr.is_null g then raise (Null_dereference (Site.name site));
  let c = costs t in
  if t.cfg.C.sequential then begin
    site.Site.stores <- site.Site.stores + 1;
    advance t c.C.local_ref;
    Memory.store t.memory g field v
  end
  else begin
    check_crash t ~proc:t.cur_proc ~thread:t.cur_thread;
    match effective_mechanism t site with
    | C.Cache -> cached_store t site g field v
    | C.Migrate ->
        let home = Gptr.proc g in
        if Machine.home_of t.machine home = t.cur_proc then begin
          if t.cur_thread.seat <> home then collapsed_hop t ~seat:home;
          site.Site.stores <- site.Site.stores + 1;
          advance t c.C.pointer_test;
          advance t c.C.local_ref;
          (stats t).Stats.local_refs <- (stats t).Stats.local_refs + 1;
          Memory.store t.memory g field v;
          Cache.note_migrate_write t.cache ~proc:t.cur_proc g ~field v
            ~log:t.cur_thread.log
        end
        else raise_notrace Must_perform
  end

(* Monitored entry points over the untimed bodies above.  A dereference
   that completes without capturing the fiber is a finished episode: its
   end-to-end latency (including any crash stall [check_crash] charged
   and any cache miss round-trips and retries inside [Cache.read/write])
   is the clock movement across the body.  [Must_perform] propagates
   before any mutation, so an aborted immediate attempt records
   nothing — the episode continues in the effect handler. *)

let completed_mech t (site : Site.t) =
  if t.cfg.C.sequential then Monitor.Local
  else
    match effective_mechanism t site with
    | C.Cache -> Monitor.Cache
    | C.Migrate -> Monitor.Local (* completed immediately: data was local *)

let mech_code = function
  | Monitor.Local -> 0
  | Monitor.Cache -> 1
  | Monitor.Migrate -> 2
  | Monitor.Fallback -> 3

(* Span roots open here, at episode entry, *before* the body runs: if the
   body raises [Must_perform] the root stays open in the trace context
   and the effect-handler arm continues the same episode (the arm is
   always entered with the root already open — [Ops] tries the fast path
   first).  [Monitor.deref_in] runs before [close_root] so exemplars can
   read the trace id of the episode they record. *)

let immediate_load t (site : Site.t) g field =
  let mon = Option.is_some t.monitor in
  let sp = Span.on t.span in
  if not (mon || sp) then immediate_load_u t site g field
  else begin
    let ep0 = now t in
    if sp && not (Span.root_open t.span) then
      Span.open_root t.span ~kind:Span.Deref ~proc:t.cur_proc ~t0:ep0;
    let v = immediate_load_u t site g field in
    let mech = completed_mech t site in
    monitor_deref t ~sid:site.Site.sid ~mech ~ep0;
    if sp then
      Span.close_root t.span ~t1:(now t) ~a:site.Site.sid
        ~b:(mech_code mech);
    v
  end

let immediate_store t (site : Site.t) g field v =
  let mon = Option.is_some t.monitor in
  let sp = Span.on t.span in
  if not (mon || sp) then immediate_store_u t site g field v
  else begin
    let ep0 = now t in
    if sp && not (Span.root_open t.span) then
      Span.open_root t.span ~kind:Span.Deref ~proc:t.cur_proc ~t0:ep0;
    immediate_store_u t site g field v;
    let mech = completed_mech t site in
    monitor_deref t ~sid:site.Site.sid ~mech ~ep0;
    if sp then
      Span.close_root t.span ~t1:(now t) ~a:site.Site.sid
        ~b:(mech_code mech)
  end

let immediate_touch t (cell : fut) =
  match cell.state with
  | Done v ->
      let c = costs t in
      let s = stats t in
      s.Stats.touches <- s.Stats.touches + 1;
      advance t c.C.future_touch;
      if Trace.on t.trace then
        emit t (Trace.Future_touch { fid = cell.fid; parked = false });
      acquire_result t ~proc:t.cur_proc ~toucher:t.cur_thread cell;
      v
  | Pending _ -> raise_notrace Must_perform

(* --- Fast-path entry points ----------------------------------------- *)

(* The engine currently driving fibers; set for the duration of [exec].
   [Ops] reads it to run non-suspending operations as plain calls,
   performing the effect only when [Must_perform] says the fiber must be
   captured (or when no engine is running, where the effect surfaces the
   usual [Effect.Unhandled]).  Domain-local so engines on different
   domains of the parallel sweep driver never see each other. *)
let current_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let running () =
  match !(current ()) with Some t -> t | None -> raise_notrace Must_perform

let seat t = t.cur_thread.seat

let fast_work n = immediate_work (running ()) n
(* SELF is the thread's virtual seat, not the physical processor: after a
   failover collapses a hop onto a promoted successor the program must
   still see itself "at" the original owner, so seat-relative allocation
   and [Ops.call]'s return stub behave exactly as on the healthy
   machine.  Identity while no processor has died. *)
let fast_self () = seat (running ())
let fast_nprocs () = (running ()).cfg.C.nprocs
let fast_alloc ~proc words = immediate_alloc (running ()) ~proc words
let fast_load site g field = immediate_load (running ()) site g field
let fast_store site g field v = immediate_store (running ()) site g field v
let fast_touch cell = immediate_touch (running ()) cell

(* Decide the fate of a migration's thread-state transfer before the fiber
   is captured.  [Some penalty]: the state will arrive, [penalty] cycles
   late.  [None]: the home kept dropping the transfer and the sender gave
   up after its attempt budget ([retry.max_migration_attempts]); the
   thread pays the retry timers on its own clock and degrades to the
   caching mechanism instead of wedging on an unreachable home. *)
let try_migrate t ~(site : Site.t) ~home =
  let s = stats t in
  let retries_before = s.Stats.retries in
  let outcome =
    Machine.thread_delivery t.machine ~dst:home ~klass:Fault_plan.Migration
      ~send_time:(now t)
      ~give_up_after:(Some t.cfg.C.retry.C.max_migration_attempts)
  in
  site.Site.retries <- site.Site.retries + s.Stats.retries - retries_before;
  match outcome with
  | Machine.Delivered { penalty } -> Some penalty
  | Machine.Gave_up { penalty; attempts } ->
      s.Stats.migration_fallbacks <- s.Stats.migration_fallbacks + 1;
      site.Site.fallbacks <- site.Site.fallbacks + 1;
      Machine.stall t.machine t.cur_proc penalty;
      if Trace.on t.trace then
        emit t ~site:site.Site.sid (Trace.Migrate_fallback { home; attempts });
      if Span.on t.span then begin
        Span.child_in t.span ~kind:Span.Stall ~proc:t.cur_proc
          ~t0:(now t - penalty) ~t1:(now t) ~a:penalty ~b:attempts;
        Span.child_in t.span ~kind:Span.Fallback ~proc:t.cur_proc ~t0:(now t)
          ~t1:(now t) ~a:home ~b:attempts
      end;
      None

let rec handler t : (unit, unit) Effect.Deep.handler =
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
    function
    | Work n ->
        Some
          (fun k ->
            immediate_work t n;
            Effect.Deep.continue k ())
    | Self -> Some (fun k -> Effect.Deep.continue k t.cur_thread.seat)
    | Nprocs -> Some (fun k -> Effect.Deep.continue k t.cfg.C.nprocs)
    | Alloc (proc, words) ->
        Some
          (fun k -> Effect.Deep.continue k (immediate_alloc t ~proc words))
    | Load (site, g, field) ->
        Some
          (fun k ->
            let ep0 =
              if Option.is_some t.monitor || Span.on t.span then now t
              else 0
            in
            match immediate_load t site g field with
            | v -> Effect.Deep.continue k v
            | exception Must_perform -> (
                (* the reference must migrate: only here is the fiber
                   captured *)
                let c = costs t in
                let home = Gptr.proc g in
                if Span.on t.span && not (Span.root_open t.span) then
                  Span.open_root t.span ~kind:Span.Deref ~proc:t.cur_proc
                    ~t0:ep0;
                advance t c.C.pointer_test;
                match try_migrate t ~site ~home with
                | Some penalty ->
                    site.Site.loads <- site.Site.loads + 1;
                    site.Site.remote <- site.Site.remote + 1;
                    site.Site.migrations <- site.Site.migrations + 1;
                    migrate_to t ~site:site.Site.sid
                      ~target:(Machine.home_of t.machine home) ~vseat:home
                      ~penalty ~ep0 ~k
                      ~complete:(fun () ->
                        (* re-resolve: the home may have failed over
                           while the state was in flight *)
                        Machine.advance t.machine
                          (Machine.home_of t.machine home) c.C.local_ref;
                        Memory.load t.memory g field)
                | None ->
                    let sp = Span.on t.span in
                    let prev = if sp then Span.parent t.span else -1 in
                    let cid = if sp then Span.enter t.span else -1 in
                    let cs0 = now t in
                    let v = cached_load t site g field in
                    if sp then
                      Span.exit_emit t.span ~id:cid ~prev
                        ~kind:Span.Cache_service ~proc:t.cur_proc ~t0:cs0
                        ~t1:(now t) ~a:home ~b:0;
                    monitor_deref t ~sid:site.Site.sid ~mech:Monitor.Fallback
                      ~ep0;
                    if sp then
                      Span.close_root t.span ~t1:(now t) ~a:site.Site.sid
                        ~b:3 (* mech code: fallback *);
                    Effect.Deep.continue k v))
    | Store (site, g, field, v) ->
        Some
          (fun k ->
            let ep0 =
              if Option.is_some t.monitor || Span.on t.span then now t
              else 0
            in
            match immediate_store t site g field v with
            | () -> Effect.Deep.continue k ()
            | exception Must_perform -> (
                let c = costs t in
                let home = Gptr.proc g in
                if Span.on t.span && not (Span.root_open t.span) then
                  Span.open_root t.span ~kind:Span.Deref ~proc:t.cur_proc
                    ~t0:ep0;
                advance t c.C.pointer_test;
                match try_migrate t ~site ~home with
                | Some penalty ->
                    site.Site.stores <- site.Site.stores + 1;
                    site.Site.remote <- site.Site.remote + 1;
                    site.Site.migrations <- site.Site.migrations + 1;
                    migrate_to t ~site:site.Site.sid
                      ~target:(Machine.home_of t.machine home) ~vseat:home
                      ~penalty ~ep0 ~k
                      ~complete:(fun () ->
                        let h = Machine.home_of t.machine home in
                        Machine.advance t.machine h c.C.local_ref;
                        Memory.store t.memory g field v;
                        Cache.note_migrate_write t.cache ~proc:h g ~field v
                          ~log:t.cur_thread.log)
                | None ->
                    let sp = Span.on t.span in
                    let prev = if sp then Span.parent t.span else -1 in
                    let cid = if sp then Span.enter t.span else -1 in
                    let cs0 = now t in
                    cached_store t site g field v;
                    if sp then
                      Span.exit_emit t.span ~id:cid ~prev
                        ~kind:Span.Cache_service ~proc:t.cur_proc ~t0:cs0
                        ~t1:(now t) ~a:home ~b:0;
                    monitor_deref t ~sid:site.Site.sid ~mech:Monitor.Fallback
                      ~ep0;
                    if sp then
                      Span.close_root t.span ~t1:(now t) ~a:site.Site.sid
                        ~b:3 (* mech code: fallback *);
                    Effect.Deep.continue k ()))
    | Future body ->
        Some
          (fun k ->
            let c = costs t in
            let s = stats t in
            s.Stats.futures <- s.Stats.futures + 1;
            advance t c.C.future_spawn;
            t.next_fid <- t.next_fid + 1;
            let cell =
              {
                fid = t.next_fid;
                state = Pending [];
                resolver_proc = -1;
                resolver_seat = -1;
                resolver_log = None;
              }
            in
            if Trace.on t.trace then
              emit t (Trace.Future_spawn { fid = cell.fid });
            (* Save the return continuation on this processor's work list.
               If it is stolen it becomes a new thread (with a fresh write
               log); if the body completes without migrating, the processor
               pops it right back — Olden's cheap no-migration path. *)
            let parent_thread = new_thread t in
            push_work t ~proc:t.cur_proc
              {
                thread = parent_thread;
                go = (fun () -> Effect.Deep.continue k cell);
              };
            (* The body is evaluated directly by the current thread, as
               Olden's futurecall does; only a migration during it hands
               control back to the scheduler. *)
            Effect.Deep.match_with
              (fun () ->
                let v = body () in
                resolve t cell v)
              () (handler t))
    | Touch (psite, cell) ->
        Some
          (fun k ->
            match immediate_touch t cell with
            | v -> Effect.Deep.continue k v
            | exception Must_perform -> (
                match cell.state with
                | Done _ -> assert false
                | Pending waiters ->
                    let c = costs t in
                    let s = stats t in
                    s.Stats.touches <- s.Stats.touches + 1;
                    advance t c.C.future_touch;
                    if Trace.on t.trace then
                      emit t
                        (Trace.Future_touch { fid = cell.fid; parked = true });
                    let label =
                      match psite with
                      | Some site -> Site.name site
                      | None -> Printf.sprintf "fut#%d" cell.fid
                    in
                    t.blocked <- t.blocked + 1;
                    t.parked <- (t.cur_proc, label) :: t.parked;
                    cell.state <-
                      Pending
                        ({ wk = k; wproc = t.cur_proc; wthread = t.cur_thread;
                           wlabel = label }
                        :: waiters)))
    | Return_to target ->
        Some
          (fun k ->
            (* the origin may have fail-stopped while the thread was
               away; its promoted successor adopts the continuation *)
            let origin = target in
            let target = Machine.home_of t.machine origin in
            if target = t.cur_proc then begin
              (if t.cur_thread.seat <> origin then begin
                 (* the return collapsed onto this processor through a
                    failover: still a release at the (virtual) source
                    and the origin's return-side acquire *)
                 Cache.on_migration_sent t.cache ~proc:t.cur_proc
                   ~log:t.cur_thread.log;
                 Cache.on_return_received t.cache ~proc:t.cur_proc
                   ~log:t.cur_thread.log;
                 t.cur_thread.seat <- origin
               end);
              Effect.Deep.continue k ()
            end
            else begin
              let c = costs t in
              let s = stats t in
              let sp = Span.on t.span in
              let ep0 =
                if Option.is_some t.monitor || sp then now t else 0
              in
              s.Stats.returns <- s.Stats.returns + 1;
              let thread = t.cur_thread in
              let source = t.cur_proc in
              (* a return stub is its own episode: a fresh root whose
                 children are its send/wire/penalty/queue/replay/recv
                 hops and any fault events along the way *)
              if sp && not (Span.root_open t.span) then
                Span.open_root t.span ~kind:Span.Return ~proc:source
                  ~t0:ep0;
              (* a return is also a release point *)
              Cache.on_migration_sent t.cache ~proc:t.cur_proc
                ~log:thread.log;
              advance t c.C.return_send;
              if Trace.on t.trace then emit t (Trace.Return_send { target });
              Machine.count_bytes t.machine 64 (* registers + return addr *);
              (* a return stub must reach its origin: retry without an
                 attempt bound (only [max_attempts] backstops it) *)
              let penalty =
                match
                  Machine.thread_delivery t.machine ~dst:target
                    ~klass:Fault_plan.Return ~send_time:(now t)
                    ~give_up_after:None
                with
                | Machine.Delivered { penalty } -> penalty
                | Machine.Gave_up _ -> assert false
              in
              let send_done = now t in
              let ready_at = send_done + c.C.net_latency + penalty in
              let sctx =
                if sp then begin
                  Span.child_in t.span ~kind:Span.Send ~proc:source ~t0:ep0
                    ~t1:send_done ~a:target ~b:0;
                  Span.child_in t.span ~kind:Span.Wire ~proc:source
                    ~t0:send_done ~t1:(send_done + c.C.net_latency) ~a:0 ~b:0;
                  if penalty > 0 then
                    Span.child_in t.span ~kind:Span.Penalty ~proc:target
                      ~t0:(send_done + c.C.net_latency) ~t1:ready_at
                      ~a:penalty ~b:0;
                  Span.save t.span
                end
                else Span.no_ctx
              in
              schedule_event t ~proc:target ~ready_at
                {
                  thread;
                  go =
                    (fun () ->
                      (* not the captured target: if it fail-stopped
                         while the stub was in flight the event was
                         re-homed and runs on the successor's clock *)
                      let target = t.cur_proc in
                      let span_on = Span.on t.span in
                      let t_arr = Machine.now t.machine target in
                      if span_on then begin
                        Span.restore t.span sctx;
                        if t_arr > ready_at then
                          Span.child_in t.span ~kind:Span.Queue ~proc:target
                            ~t0:ready_at ~t1:t_arr ~a:0 ~b:0
                      end;
                      check_crash t ~proc:target ~thread;
                      let t_rc = Machine.now t.machine target in
                      if span_on && t_rc > t_arr then
                        Span.child_in t.span ~kind:Span.Replay ~proc:target
                          ~t0:t_arr ~t1:t_rc ~a:0 ~b:0;
                      Machine.advance t.machine target c.C.return_recv;
                      if Trace.on t.trace then
                        Trace.emit t.trace
                          { Trace.time = Machine.now t.machine target;
                            proc = target; tid = thread.tid; site = -1;
                            kind = Trace.Return_arrive { source } };
                      Cache.on_return_received t.cache ~proc:target
                        ~log:thread.log;
                      (* back at the (virtual) origin, wherever the home
                         map routed the stub *)
                      thread.seat <- origin;
                      if span_on then
                        Span.child_in t.span ~kind:Span.Recv ~proc:target
                          ~t0:t_rc ~t1:(Machine.now t.machine target) ~a:0 ~b:0;
                      (match t.monitor with
                      | Some m ->
                          Monitor.return_stub m
                            ~cycles:(Machine.now t.machine target - ep0)
                      | None -> ());
                      if span_on then
                        Span.close_root t.span
                          ~t1:(Machine.now t.machine target)
                          ~a:target ~b:0;
                      Effect.Deep.continue k ());
                }
            end)
    | Phase name ->
        Some
          (fun k ->
            (* measurement boundary: all processors synchronize *)
            let m = Machine.makespan t.machine in
            for p = 0 to t.cfg.C.nprocs - 1 do
              Machine.wait_until t.machine p m
            done;
            (* one of the two places clocks move off the executing
               processor (failover is the other): re-key them all *)
            Scheduler.touch_all t.sched;
            t.phases <-
              { pname = name; at = m; snapshot = Stats.copy (stats t) }
              :: t.phases;
            if Trace.on t.trace then
              Trace.emit t.trace
                { Trace.time = m; proc = t.cur_proc;
                  tid = t.cur_thread.tid; site = -1;
                  kind = Trace.Phase_mark name };
            Effect.Deep.continue k ())
    | _ -> None
  in
  { retc = Fun.id; exnc = raise; effc }

(* --- The scheduler loop -------------------------------------------- *)

(* A fail-stop observed at the scheduler: run the failover protocol
   (promote the backup, rewrite the home map, handle dependents), then
   deal with the victim's resident work.  With [replica_spec.threads]
   the victim's event queue, work list and parked waiters all move to
   the promoted successor — events keep their (ready_at, seq) keys, so
   the global execution order stays total.  Without it the tasks are
   unrecoverable and the run aborts with a deterministic report
   ([Threads_lost]). *)
let fail_stop t fo ~victim =
  let successor = Failover.fail_over fo ~victim in
  let replicate_threads =
    match t.cfg.C.replication with Some r -> r.C.threads | None -> false
  in
  let parked_count =
    List.fold_left
      (fun n (p, _) -> if p = victim then n + 1 else n)
      0 t.parked
  in
  if replicate_threads then begin
    Scheduler.move t.sched ~victim ~successor;
    (* parked-waiter bookkeeping follows the continuations *)
    if parked_count > 0 then
      t.parked <-
        List.map
          (fun (p, label) ->
            if p = victim then (successor, label) else (p, label))
          t.parked
  end
  else begin
    let events = Scheduler.events t.sched victim in
    let works = Scheduler.works t.sched victim in
    let lost = events + works + parked_count in
    if lost > 0 then begin
      let s = stats t in
      s.Stats.threads_lost <- s.Stats.threads_lost + lost;
      Failover.note_threads_lost fo ~proc:victim ~count:lost;
      raise
        (Threads_lost
           (Printf.sprintf
              "p%d fail-stopped with %d unreplicated resident task(s) \
               (events=%d worklist=%d parked=%d); rerun with replica \
               threads enabled or treat the computation as lost"
              victim lost events works parked_count))
    end
  end;
  (* the protocol moved several clocks (successor, announcement
     targets): re-key every processor *)
  Scheduler.touch_all t.sched

(* Run the next item: globally minimal start time.  At equal start times
   a processor steals from its own work list before accepting an arrived
   migration: futurecall continuations unfold depth-first and keep
   generating parallelism, so draining them first is what keeps spawn
   chains from being starved by arriving bodies (the continuation was
   saved by a thread that already owned the processor).  Remaining ties
   fall back to readiness time, then creation order, for determinism.

   The pick re-keys only processors whose queue, work list or clock
   changed.  Pushes touch their target, [Scheduler.take] touches the
   executing processor, and a running task moves no clock but its own
   ([Machine.request_reply] and the one-way sends move the sender's
   clock and the handler's [handler_free], never another clock), except
   at a phase barrier and at failover, which re-key everything. *)
let step t =
  let proc = Scheduler.pick t.sched in
  if proc < 0 then false
  else begin
    let best_start = Scheduler.start t.sched proc in
    match t.failover with
    | Some fo when Failover.pending fo ~proc ~time:best_start ->
        (* the pick observed a fail-stop: the victim dies *before*
           running its task; the task either moves to the promoted
           successor (replicated threads) or aborts the run.  The next
           [step] re-picks against the rewritten queues. *)
        fail_stop t fo ~victim:proc;
        true
    | _ ->
    (* [best_start] is the global virtual time: it never decreases across
       steps, so it drives the monitor's interval windows *)
    (match t.monitor with Some m -> Monitor.tick m best_start | None -> ());
    Machine.wait_until t.machine proc best_start;
    let steal = Scheduler.source t.sched proc = Scheduler.Work in
    let task = Scheduler.take t.sched proc in
    if steal then begin
      let s = stats t in
      s.Stats.steals <- s.Stats.steals + 1;
      Machine.advance t.machine proc (costs t).C.steal;
      if Trace.on t.trace then
        Trace.emit t.trace
          { Trace.time = Machine.now t.machine proc; proc;
            tid = task.thread.tid; site = -1; kind = Trace.Steal }
    end;
    t.cur_proc <- proc;
    t.cur_thread <- task.thread;
    if Trace.on t.trace then Trace.set_thread t.trace task.thread.tid;
    (* a task must not inherit the span trace context of whatever ran
       last: cross-task context travels only inside scheduled closures
       (via [Span.save]/[restore]), which re-install it themselves *)
    if Span.on t.span then Span.clear t.span;
    task.go ();
    true
  end

(* One line per processor for flight-recorder dumps: where each clock
   stands, what work is still queued, and the last span emitted there. *)
let flight_state t =
  let busy = Machine.busy_cycles t.machine in
  let comm = Machine.comm_cycles t.machine in
  List.init t.cfg.C.nprocs (fun p ->
      Printf.sprintf
        "p%d clock=%d busy=%d comm=%d events=%d worklist=%d last_span=%d" p
        (Machine.now t.machine p)
        busy.(p) comm.(p)
        (Scheduler.events t.sched p)
        (Scheduler.works t.sched p)
        (Span.last_span_on t.span p))

let flight_dump t ~reason =
  Span.flight_dump t.span ~reason ~state:(flight_state t)

(* The drained-but-blocked diagnostic: which sites the stuck threads
   parked at, and how many pending continuations each processor holds —
   enough to see where the missing resolution was supposed to come
   from. *)
let deadlock_message t =
  let parked = List.rev t.parked (* park order *) in
  let labels =
    (* dedup preserving first-park order, with multiplicities *)
    List.fold_left
      (fun acc (_, label) ->
        if List.mem_assoc label acc then
          List.map
            (fun (l, c) -> if String.equal l label then (l, c + 1) else (l, c))
            acc
        else acc @ [ (label, 1) ])
      [] parked
  in
  let per_proc = Array.make t.cfg.C.nprocs 0 in
  List.iter (fun (p, _) -> per_proc.(p) <- per_proc.(p) + 1) parked;
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d thread(s) parked on unresolved futures" t.blocked);
  if labels <> [] then begin
    Buffer.add_string buf "; parked at: ";
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun (l, c) -> if c = 1 then l else Printf.sprintf "%s (x%d)" l c)
            labels))
  end;
  let pending =
    List.filter
      (fun (_, c) -> c > 0)
      (List.init t.cfg.C.nprocs (fun p -> (p, per_proc.(p))))
  in
  if pending <> [] then begin
    Buffer.add_string buf "; pending continuations: ";
    Buffer.add_string buf
      (String.concat " "
         (List.map (fun (p, c) -> Printf.sprintf "p%d=%d" p c) pending))
  end;
  (* span tracing localizes the wedge further: the last span each parked
     processor emitted, and a flight-recorder dump when one is running *)
  let parked_procs =
    List.sort_uniq compare (List.map (fun (p, _) -> p) parked)
  in
  if Span.on t.span && parked_procs <> [] then begin
    Buffer.add_string buf "; last span per parked proc: ";
    Buffer.add_string buf
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "p%d=#%d" p (Span.last_span_on t.span p))
            parked_procs))
  end;
  (match flight_dump t ~reason:"deadlock" with
  | Some path -> Buffer.add_string buf ("; flight recorder: " ^ path)
  | None -> ());
  Buffer.contents buf

let failure_reason = function
  | Machine.Undeliverable { dst; klass; attempts } ->
      Machine.undeliverable_to_string ~dst ~klass ~attempts
  | Threads_lost msg -> msg
  | e -> Printexc.to_string e

(* Run [program] to completion as the initial thread on processor 0. *)
let exec t program =
  let main_thread = new_thread t in
  schedule_event t ~proc:0 ~ready_at:0
    {
      thread = main_thread;
      go =
        (fun () ->
          Effect.Deep.match_with
            (fun () ->
              program ();
              t.finished <- true)
            () (handler t));
    };
  let cur = current () in
  let saved = !cur in
  cur := Some t;
  Fun.protect
    ~finally:(fun () -> cur := saved)
    (fun () ->
      try
        while step t do
          ()
        done
      with e ->
        (* a run that dies mid-flight (an undeliverable message, lost
           threads, a program error) leaves its flight-recorder dump
           here, while the per-processor state is still in hand *)
        let bt = Printexc.get_raw_backtrace () in
        ignore (flight_dump t ~reason:(failure_reason e));
        Printexc.raise_with_backtrace e bt);
  if t.blocked > 0 then raise (Deadlock (deadlock_message t));
  if not t.finished then raise (Deadlock "main thread never completed")

(* Open-loop injection: admit a fresh thread into the event queue at an
   absolute simulated time, independent of the main program's control
   flow.  This is how the serving driver turns the engine into an open
   system — each injected request starts at its ingress processor as a
   brand-new thread and runs under the full migrate-vs-cache machinery,
   exactly like work the program spawned itself.

   Called from inside the running program (the serving driver injects
   the whole arrival schedule from its main thread).  A [ready_at] that
   precedes the injecting processor's clock is rejected, so virtual time
   never runs backwards.  [on_complete] runs inside the request's fiber
   on the processor that finished it, with that processor's clock — the
   serving driver measures admission→completion latency from it. *)
let inject t ~proc ~ready_at ?on_complete fn =
  if ready_at < now t then
    invalid_arg
      (Printf.sprintf "Engine.inject: ready_at %d precedes p%d's clock %d"
         ready_at t.cur_proc (now t));
  (* an ingress processor that has fail-stopped redirects to its
     promoted successor, like every other send (identity on a healthy
     machine) *)
  let proc =
    if Machine.is_dead t.machine proc then Machine.home_of t.machine proc
    else proc
  in
  let thread = new_thread t in
  (* the request resides at its ingress processor, not wherever the
     injecting thread happens to sit *)
  thread.seat <- proc;
  Machine.note_ingress t.machine proc;
  schedule_event t ~proc ~ready_at
    {
      thread;
      go =
        (fun () ->
          Effect.Deep.match_with
            (fun () ->
              fn ();
              Machine.note_request_done t.machine;
              match on_complete with
              | Some f -> f ~proc:t.cur_proc ~finish:(now t)
              | None -> ())
            () (handler t));
    }

(* Host-side scheduler work: deterministic, independent of the host, and
   kept out of [report] and every snapshot. *)
let scheduler_report t = Scheduler.report t.sched

type report = {
  makespan : int;
  stats : Stats.t;
  utilization : float;
  avg_chain_length : float;
  phases : (string * int) list; (* in program order *)
}

let report (t : t) =
  {
    makespan = Machine.makespan t.machine;
    stats = Machine.stats t.machine;
    utilization = Machine.utilization t.machine;
    avg_chain_length = Cache.average_chain_length t.cache;
    phases = List.rev_map (fun p -> (p.pname, p.at)) t.phases;
  }

let phase_snapshots (t : t) =
  List.rev_map (fun p -> (p.pname, p.at, p.snapshot)) t.phases

let run ?obs cfg program =
  let t = create ?obs cfg in
  exec t program;
  report t

(* Duration and statistics of the region between phase marks [start] and
   [stop] (or the end of the run). *)
let interval t ~start ~stop =
  let marks = phase_snapshots t in
  let find name =
    List.find_opt (fun (n, _, _) -> String.equal n name) marks
  in
  match find start with
  | None -> invalid_arg ("Engine.interval: no phase " ^ start)
  | Some (_, t0, s0) ->
      let t1, s1 =
        match Option.bind stop find with
        | Some (_, t1, s1) -> (t1, s1)
        | None -> (Machine.makespan t.machine, Machine.stats t.machine)
      in
      (t1 - t0, Stats.diff s1 s0)
