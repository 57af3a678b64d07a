(* Crash-and-restart recovery.

   The software cache is write-through with the home processor as the
   source of truth (Section 2.2), so a processor's cached state is
   reconstructible: a crash costs time, never data.  This module decides
   *when* a processor crashes (a seeded schedule, pure in
   [(fault_seed, proc, time-window)] like the message-fault legs) and
   runs the warm-restart protocol when one fires.

   What a crash destroys — the victim's volatile remote-access state:
   the translation table with every cached page frame, the running
   thread's write-log dirty set, and the suspicion epochs.  What
   survives a warm restart: the victim's home pages (they *are* the
   truth), resident threads and parked continuations (their stacks live
   in home memory), and the home-side directories.

   The restart protocol per coherence scheme:
   - global: the victim announces recovery to every other processor
     (a [Recovery]-class request/reply riding the standard retry and
     backoff discipline); each home prunes the victim from its sharer
     masks so eager invalidations stop chasing copies that no longer
     exist.  Invalidations already in flight toward the victim land on
     an empty table and are tolerated.
   - bilateral: nothing to announce — the wiped table means every
     refetched page revalidates against its home timestamp on first
     touch, which is exactly the scheme's normal suspect path.
   - local: the crash *is* the scheme's whole-cache invalidate; the
     victim just pays the flush cost and refetches on demand.

   Dereferences that were mid-flight against the lost table replay
   through the normal miss path: the engine checks for a due crash at
   deterministic operation boundaries *before* touching the cache, so a
   store is never double-applied and a load never reads a wiped frame. *)

module C = Olden_config
module Cache = Olden_cache.Cache_system
module Translation = Olden_cache.Translation
module Write_log = Olden_cache.Write_log
module Trace = Olden_trace.Trace

type proc_state = {
  mutable crashes : int;
  mutable last_crash_time : int; (* -1 before the first crash *)
  mutable last_window : int; (* last seeded window that fired *)
  mutable pages_lost : int;
  mutable messages : int; (* recovery announcements sent *)
  mutable stall_cycles : int; (* victim clock spent in restart protocols *)
  mutable ever_at_first_crash : int;
      (* [Translation.entries_ever] when the first crash hit; everything
         created after it is a post-crash refetch *)
}

type t = {
  cfg : C.t;
  machine : Machine.t;
  cache : Cache.t;
  procs : proc_state array;
  mutable forced : (int * int) list;
      (* (proc, at) crash orders from tests, consumed one per crash *)
}

let create cfg machine cache =
  {
    cfg;
    machine;
    cache;
    procs =
      Array.init cfg.C.nprocs (fun _ ->
          {
            crashes = 0;
            last_crash_time = -1;
            last_window = -1;
            pages_lost = 0;
            messages = 0;
            stall_cycles = 0;
            ever_at_first_crash = 0;
          });
    forced = [];
  }

let schedule_crash t ~proc ~at = t.forced <- t.forced @ [ (proc, at) ]

let crashes t ~proc = t.procs.(proc).crashes
let last_crash_time t ~proc = t.procs.(proc).last_crash_time
let total_crashes t = Array.fold_left (fun a p -> a + p.crashes) 0 t.procs

let emit t ~proc ~time kind =
  let tr = (Machine.obs t.machine).Obs.trace in
  if Trace.on tr then
    Trace.emit tr
      { Trace.time; proc; tid = Trace.thread tr; site = Trace.site tr; kind }

(* The warm restart itself.  [log] is the write log of the thread running
   on the victim at crash time.  Write-through already placed both the
   data and the home-side knowledge (sharer registrations, timestamp
   stamps) at the homes, so the victim's pending release obligations are
   settled from the home side; the victim-side log is the simulator's
   vehicle for that settlement, and it runs *before* the state drop so
   sharers of pages the dying thread wrote still hear their
   invalidations. *)
let crash_and_recover t ~proc ~(log : Write_log.t) =
  let c = t.cfg.C.costs in
  let s = Machine.stats t.machine in
  let ps = t.procs.(proc) in
  let t0 = Machine.now t.machine proc in
  (* the whole warm restart is one Crash envelope span: the per-home
     recovery announcements below are retried request/replies, so their
     Rpc spans (and any drop/backoff events) nest under it — a crash in
     the middle of a dereference shows up inside that episode's tree *)
  let module Span = Olden_span.Span in
  let obs = Machine.obs t.machine in
  let sp = obs.Obs.span in
  let span_on = Span.on sp in
  let sprev = if span_on then Span.parent sp else -1 in
  let sid = if span_on then Span.enter sp else -1 in
  if ps.crashes = 0 then
    ps.ever_at_first_crash <- Translation.entries_ever (Cache.table t.cache proc);
  ps.crashes <- ps.crashes + 1;
  ps.last_crash_time <- t0;
  s.Stats.crashes <- s.Stats.crashes + 1;
  (* settle the running thread's release obligations from the home side *)
  Cache.on_migration_sent t.cache ~proc ~log;
  let lost = Cache.drop_processor_state t.cache ~proc in
  ps.pages_lost <- ps.pages_lost + lost;
  s.Stats.pages_lost_in_crash <- s.Stats.pages_lost_in_crash + lost;
  emit t ~proc ~time:t0 (Trace.Crash { pages_lost = lost });
  (* restart work: rebuild the empty table (charged as the whole-cache
     invalidate the local scheme already prices) *)
  Machine.advance t.machine proc c.C.cache_flush;
  let homes = ref 0 in
  (match t.cfg.C.coherence with
  | C.Global ->
      (* announce recovery to every other processor so its directory
         stops naming us as a sharer; the announcement is a normal
         retried request/reply, so it survives the same lossy network
         that may have caused the crash window *)
      for home = 0 to t.cfg.C.nprocs - 1 do
        if home <> proc then begin
          incr homes;
          ps.messages <- ps.messages + 1;
          s.Stats.recovery_messages <- s.Stats.recovery_messages + 1;
          ignore
            (Machine.request_reply ~klass:Fault_plan.Recovery t.machine
               ~src:proc ~dst:home ~service:c.C.recovery_service);
          ignore (Cache.prune_crashed_sharer t.cache ~home ~proc)
        end
      done
  | C.Bilateral | C.Local ->
      (* bilateral: the wiped table revalidates page-by-page on first
         touch; local: the wipe is the scheme's own flush — neither
         needs a message *)
      ());
  let stall = Machine.now t.machine proc - t0 in
  ps.stall_cycles <- ps.stall_cycles + stall;
  s.Stats.recovery_stall_cycles <- s.Stats.recovery_stall_cycles + stall;
  Option.iter
    (fun m -> Olden_monitor.Monitor.recovery_stall m ~cycles:stall)
    obs.Obs.monitor;
  if span_on then
    Span.exit_emit sp ~id:sid ~prev:sprev ~kind:Span.Crash ~proc ~t0
      ~t1:(Machine.now t.machine proc) ~a:lost ~b:!homes;
  emit t ~proc ~time:(Machine.now t.machine proc)
    (Trace.Recover { homes = !homes; stall })

(* Is a crash due on [proc] right now?  Forced orders (tests) fire first,
   one per crash; otherwise the seeded schedule decides, at most once per
   (proc, window) — [Fault_plan.crash_due] is constant within a window,
   so without the [last_window] latch one positive window would crash the
   victim at every operation boundary it contains. *)
let crash_pending t ~proc ~time =
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
          spec.C.crash > 0.
          && spec.C.crash_cycles > 0
          &&
          let window = time / spec.C.crash_cycles in
          let ps = t.procs.(proc) in
          window > ps.last_window
          && Fault_plan.crash_due plan ~proc ~time
          &&
          (ps.last_window <- window;
           true))

let maybe_crash t ~proc ~log =
  if crash_pending t ~proc ~time:(Machine.now t.machine proc) then begin
    crash_and_recover t ~proc ~log;
    true
  end
  else false

(* --- Reporting ------------------------------------------------------- *)

type proc_report = {
  proc : int;
  crashes : int;
  pages_lost : int;
  pages_refetched : int;
  recovery_messages : int;
  stall_cycles : int;
}

let report t =
  let rows = ref [] in
  for proc = t.cfg.C.nprocs - 1 downto 0 do
    let ps = t.procs.(proc) in
    if ps.crashes > 0 then
      rows :=
        {
          proc;
          crashes = ps.crashes;
          pages_lost = ps.pages_lost;
          pages_refetched =
            Translation.entries_ever (Cache.table t.cache proc)
            - ps.ever_at_first_crash;
          recovery_messages = ps.messages;
          stall_cycles = ps.stall_cycles;
        }
        :: !rows
  done;
  !rows

let stall_cycles t =
  Array.map (fun (ps : proc_state) -> ps.stall_cycles) t.procs
