(* Fail-stop failover.

   Unlike {!Recovery}'s crash-and-restart — where the victim comes back
   and only its volatile cache state is lost — a fail-stop death is
   permanent: the processor never computes again, and without a mirror
   its home pages would be unrecoverable.  The replication layer
   ({!Olden_config.replica_spec} + [Cache_system.mirror_store]) keeps a
   write-through copy of every home page at a deterministic backup, so a
   death costs time, never data.

   This module decides *when* a processor dies (a seeded schedule pure
   in [(fault_seed, proc, time-window)], like [crash_due]) and runs the
   failover protocol when one fires:

   - the victim is marked dead and its volatile cached state dropped;
   - every owner the victim was serving re-homes to the deterministic
     successor ({!Machine.backup_of}); from then on every send resolves
     through the home map, so requests racing the death replay against
     the promoted backup through the normal miss path;
   - dependents are handled per coherence scheme: global prunes the
     victim from every sharer mask and announces the promotion to each
     live processor (a retried [Recovery]-class request/reply);
     bilateral conservatively marks every live processor's cache
     all-suspect (first touch revalidates against the new home's
     stamps); local needs nothing — write-through kept every live copy
     coherent and the directories are intact;
   - the successor re-homes a fresh backup by mirroring the promoted
     pages to it ([Replica]-class one-ways), so a second death of the
     *successor* is survivable too.

   What happens to threads resident on the victim is the engine's
   business (their queues live there): with [replica_spec.threads] they
   move to the successor; without it they are lost and the run aborts
   with a deterministic report.  The engine records the loss here so the
   failover report names it. *)

module C = Olden_config
module Cache = Olden_cache.Cache_system
module Trace = Olden_trace.Trace
module G = Olden_config.Geometry

type proc_state = {
  mutable died_at : int; (* -1 while alive *)
  mutable successor : int; (* -1 until death *)
  mutable pages_moved : int; (* home pages promoted to the backup *)
  mutable cached_lost : int; (* live cached page entries dropped *)
  mutable messages : int; (* announcements + re-replication sends *)
  mutable threads_lost : int; (* unreplicated resident tasks lost *)
  mutable stall_cycles : int; (* successor cycles spent promoting *)
}

type t = {
  cfg : C.t;
  machine : Machine.t;
  cache : Cache.t;
  memory : Memory.t;
  procs : proc_state array;
  mutable forced : (int * int) list;
      (* (proc, at) death orders from tests, consumed one per death *)
}

let create cfg machine cache memory =
  {
    cfg;
    machine;
    cache;
    memory;
    procs =
      Array.init cfg.C.nprocs (fun _ ->
          {
            died_at = -1;
            successor = -1;
            pages_moved = 0;
            cached_lost = 0;
            messages = 0;
            threads_lost = 0;
            stall_cycles = 0;
          });
    forced = [];
  }

let schedule_failstop t ~proc ~at = t.forced <- t.forced @ [ (proc, at) ]

let died_at t ~proc = t.procs.(proc).died_at
let successor_of t ~proc = t.procs.(proc).successor

let failstops t =
  Array.fold_left (fun a p -> if p.died_at >= 0 then a + 1 else a) 0 t.procs

let note_threads_lost t ~proc ~count =
  t.procs.(proc).threads_lost <- t.procs.(proc).threads_lost + count

let emit t ~proc ~time kind =
  let tr = (Machine.obs t.machine).Obs.trace in
  if Trace.on tr then
    Trace.emit tr
      { Trace.time; proc; tid = Trace.thread tr; site = Trace.site tr; kind }

(* Home pages the victim was serving for [owner]: everything its bump
   allocator handed out, rounded up to whole pages — that is what the
   mirror holds and what the successor must start serving. *)
let pages_of_owner t owner =
  let words = Memory.words_used t.memory owner in
  (words + G.words_per_page - 1) / G.words_per_page

(* The failover protocol.  Runs on the successor's clock: the victim is
   a corpse, so the promotion work — installing the mirrored pages,
   announcing the new home, re-homing a fresh backup — is the backup's
   to pay.  Returns the promoted successor. *)
let fail_over t ~victim =
  let r =
    match t.cfg.C.replication with
    | Some r -> r
    | None ->
        invalid_arg "Failover.fail_over: no replication configured"
  in
  let c = t.cfg.C.costs in
  let s = Machine.stats t.machine in
  let ps = t.procs.(victim) in
  let successor =
    Machine.backup_of t.machine ~stride:r.C.stride ~owner:victim
  in
  let died = Machine.now t.machine victim in
  let t0 = Machine.now t.machine successor in
  let module Span = Olden_span.Span in
  let obs = Machine.obs t.machine in
  let sp = obs.Obs.span in
  let span_on = Span.on sp in
  let sprev = if span_on then Span.parent sp else -1 in
  let sid = if span_on then Span.enter sp else -1 in
  Machine.mark_dead t.machine victim;
  ps.died_at <- died;
  ps.successor <- successor;
  s.Stats.failstops <- s.Stats.failstops + 1;
  (* the victim's volatile cached state dies with it *)
  let lost = Cache.drop_processor_state t.cache ~proc:victim in
  ps.cached_lost <- ps.cached_lost + lost;
  emit t ~proc:victim ~time:died (Trace.Failstop { pages_lost = lost });
  (* promote the backup: every owner the victim was serving re-homes,
     including the victim itself and any earlier victims it had been
     serving as a successor *)
  let moved = ref 0 in
  for owner = 0 to t.cfg.C.nprocs - 1 do
    if Machine.home_of t.machine owner = victim then begin
      Machine.rehome t.machine ~owner ~target:successor;
      moved := !moved + pages_of_owner t owner
    end
  done;
  ps.pages_moved <- ps.pages_moved + !moved;
  s.Stats.pages_failed_over <- s.Stats.pages_failed_over + !moved;
  (* the successor installs the mirror as the live copy: a table rebuild,
     priced like the whole-cache invalidate *)
  Machine.advance t.machine successor c.C.cache_flush;
  let homes = ref 0 in
  (match t.cfg.C.coherence with
  | C.Global ->
      (* announce the promotion to every live processor so requests stop
         targeting the corpse; each announcement is a normal retried
         request/reply riding the same lossy network *)
      for p = 0 to t.cfg.C.nprocs - 1 do
        if p <> successor && not (Machine.is_dead t.machine p) then begin
          incr homes;
          ps.messages <- ps.messages + 1;
          s.Stats.failover_messages <- s.Stats.failover_messages + 1;
          ignore
            (Machine.request_reply ~klass:Fault_plan.Recovery t.machine
               ~src:successor ~dst:p ~service:c.C.recovery_service)
        end
      done;
      (* strike the victim from every sharer mask: its copies are gone,
         and an invalidation chasing them would count a dead send *)
      for home = 0 to t.cfg.C.nprocs - 1 do
        if home <> victim then
          ignore (Cache.prune_crashed_sharer t.cache ~home ~proc:victim)
      done
  | C.Bilateral ->
      (* conservatively mark every live cache all-suspect: the first
         touch of any page revalidates against its (possibly promoted)
         home's timestamps *)
      for p = 0 to t.cfg.C.nprocs - 1 do
        if p <> victim && not (Machine.is_dead t.machine p) then
          Cache.on_migration_received t.cache ~proc:p
      done
  | C.Local ->
      (* write-through kept every live copy coherent and the home-side
         directories survive; nothing to announce *)
      ());
  (* re-home a fresh backup: mirror the promoted pages to the next
     candidate in the ring so a later death of the successor is
     survivable too *)
  let fresh = Machine.backup_of t.machine ~stride:r.C.stride ~owner:victim in
  if fresh <> successor && not (Machine.is_dead t.machine fresh) then begin
    for _page = 1 to !moved do
      ps.messages <- ps.messages + 1;
      s.Stats.failover_messages <- s.Stats.failover_messages + 1;
      ignore
        (Machine.one_way ~klass:Fault_plan.Replica t.machine ~src:successor
           ~dst:fresh ~service:c.C.store_service)
    done;
    Machine.count_bytes t.machine (!moved * G.page_bytes)
  end;
  let stall = Machine.now t.machine successor - t0 in
  ps.stall_cycles <- ps.stall_cycles + stall;
  Option.iter
    (fun m -> Olden_monitor.Monitor.recovery_stall m ~cycles:stall)
    obs.Obs.monitor;
  if span_on then
    Span.exit_emit sp ~id:sid ~prev:sprev ~kind:Span.Failover ~proc:successor
      ~t0
      ~t1:(Machine.now t.machine successor)
      ~a:!moved ~b:victim;
  emit t ~proc:successor
    ~time:(Machine.now t.machine successor)
    (Trace.Failover { victim; pages = !moved; homes = !homes });
  successor

(* Is a fail-stop death due on [proc] right now?  Forced orders (tests)
   fire first; otherwise the seeded schedule decides.  Death is
   permanent, so no window latch is needed (the dead-set guard is the
   latch); the quorum-of-one guard never kills the last live processor —
   a machine with nobody left to promote has no failover story. *)
let pending t ~proc ~time =
  (not (Machine.is_dead t.machine proc))
  && Machine.live_count t.machine > 1
  &&
  let rec take acc = function
    | [] -> None
    | (p, at) :: rest when p = proc && at <= time ->
        Some (List.rev_append acc rest)
    | entry :: rest -> take (entry :: acc) rest
  in
  match take [] t.forced with
  | Some rest ->
      t.forced <- rest;
      true
  | None -> (
      match Machine.fault_plan t.machine with
      | None -> false
      | Some plan ->
          let spec = Fault_plan.spec plan in
          spec.C.failstop > 0.
          && spec.C.failstop_cycles > 0
          && Fault_plan.failstop_due plan ~proc ~time)

(* --- Reporting ------------------------------------------------------- *)

type proc_report = {
  victim : int;
  died_at : int;
  successor : int;
  pages_failed_over : int;
  cached_pages_lost : int;
  messages : int;
  threads_lost : int;
  stall_cycles : int;
}

let report t =
  let rows = ref [] in
  for proc = t.cfg.C.nprocs - 1 downto 0 do
    let ps = t.procs.(proc) in
    if ps.died_at >= 0 then
      rows :=
        {
          victim = proc;
          died_at = ps.died_at;
          successor = ps.successor;
          pages_failed_over = ps.pages_moved;
          cached_pages_lost = ps.cached_lost;
          messages = ps.messages;
          threads_lost = ps.threads_lost;
          stall_cycles = ps.stall_cycles;
        }
        :: !rows
  done;
  !rows
