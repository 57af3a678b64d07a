(** The Olden runtime: a deterministic discrete-event simulation of SPMD
    execution with computation migration, software caching, futures, and
    future stealing.

    Each simulated thread is an OCaml fiber.  Performing an {!Ops}
    operation hands control to the handler, which charges costs to the
    simulated machine and either resumes the fiber immediately (local
    work, cache accesses) or captures the continuation and schedules its
    resumption elsewhere or later (migrations, return stubs, touches of
    unresolved futures).  A processor left idle by an outgoing migration
    pops the most recent continuation from its own work list — Olden's
    future stealing.

    Scheduling runs items in globally minimal start-time order with
    deterministic tie-breaking, so a run is a pure function of the program
    and the configuration. *)

exception Null_dereference of string
(** Raised when a program dereferences {!Gptr.null}; carries the site
    name. *)

exception Deadlock of string
(** Raised when execution drains with parked touches outstanding, or the
    main thread never completes. *)

exception Threads_lost of string
(** Raised when a processor fail-stops holding resident work —
    queued events, work-list continuations, or parked waiters — and the replication layer does not cover thread state
    ([replica_spec.threads = false]): the tasks are unrecoverable, so
    the run aborts with a deterministic report instead of wedging. *)

type t

val create : ?obs:Obs.sinks -> Olden_config.t -> t
(** A fresh engine recording into the sinks [obs] names (default
    {!Obs.none}: nothing, and nothing allocated for it).  The engine
    builds the run's emitters from them ({!Obs.start}) — a fresh trace
    context and span state, and, when [obs.monitor_interval] is set, a
    {!Olden_monitor.Monitor} over its own machine and recovery layer —
    and hands them to the machine, cache, directory, recovery and
    failover layers, whose hooks then guard on one field read.  No sink
    is looked up per hook, so two engines on one domain record
    independently, and an engine may run on any domain. *)

val obs : t -> Obs.t
(** The run's emitters, for hooks that run inside its threads (the
    serving completion hook). *)

val monitor : t -> Olden_monitor.Monitor.t option
(** The monitor the engine built, when [obs.monitor_interval] was set. *)

val memory : t -> Memory.t
(** The distributed heap — direct access for post-run verification (reads
    through this interface are free of simulated cost). *)

val machine : t -> Machine.t
val cache : t -> Olden_cache.Cache_system.t

val recovery : t -> Olden_recovery.Recovery.t option
(** The crash-and-restart layer; [Some] whenever a fault schedule is
    active (tests force crashes through it, the checker reads crash
    epochs from it). *)

val failover : t -> Olden_recovery.Failover.t option
(** The fail-stop failover layer; [Some] whenever a fault schedule is
    active (tests force deaths through {!Olden_recovery.Failover.schedule_failstop},
    the checker and the CLI read the promotion report from it). *)

val config : t -> Olden_config.t

val exec : t -> (unit -> unit) -> unit
(** Run a program to completion as the initial thread on processor 0.
    Exceptions raised by the program propagate; when the run has a
    flight recorder, one that escapes the scheduler (an
    {!Machine.Undeliverable} message, {!Threads_lost}, a program error)
    first dumps it with {!flight_state}, as a {!Deadlock} does. *)

val inject :
  t ->
  proc:int ->
  ready_at:int ->
  ?on_complete:(proc:int -> finish:int -> unit) ->
  (unit -> unit) ->
  unit
(** Admit a fresh thread into [proc]'s event queue at absolute simulated
    time [ready_at] — the open-loop entry point the serving driver uses
    to turn the engine into an open system.  The thread runs under the
    full effect handler (migration, caching, faults, failover), exactly
    like program-spawned work; a dead ingress processor redirects to its
    promoted successor.  Counts into [Stats.requests_admitted] /
    [requests_completed] and the machine's per-processor ingress tally.

    Must be called from inside the running program.  [on_complete] runs
    inside the injected fiber on the processor that finished it,
    receiving that processor and its clock at completion.
    @raise Invalid_argument if [ready_at] is earlier than the injecting
    processor's clock (virtual time never runs backwards). *)

type report = {
  makespan : int;  (** finishing time in cycles *)
  stats : Stats.t;
  utilization : float;
  avg_chain_length : float;  (** translation-table chains (Figure 1) *)
  phases : (string * int) list;  (** phase marks, in program order *)
}

val report : t -> report

val scheduler_report : t -> Scheduler.report
(** Host-side scheduler work, a deterministic count independent of the
    host.  A step normally re-keys the executing processor and any push
    target, so [rekeys] stays near [steps] plus [full_rekeys * nprocs]
    (see docs/PERFORMANCE.md).  Not part of {!report} or any snapshot. *)

val phase_snapshots : t -> (string * int * Stats.t) list
(** Each phase mark with the statistics snapshot taken at it. *)

val flight_state : t -> string list
(** One line per processor (clock, busy/comm cycles, queued events,
    work-list depth, last span id) — the machine-state section of a
    flight-recorder dump. *)

val flight_dump : t -> reason:string -> string option
(** Dump the run's flight recorder with {!flight_state}
    ({!Olden_span.Span.flight_dump}); the path written, or [None] when
    the run has no flight recorder. *)

val interval : t -> start:string -> stop:string option -> int * Stats.t
(** Duration and statistics of the region between two phase marks (or
    from [start] to the end of the run).
    @raise Invalid_argument if [start] was never marked. *)

val run : ?obs:Obs.sinks -> Olden_config.t -> (unit -> unit) -> report
(** [create] + [exec] + [report]. *)

(** {2 Fast-path operation entry points}

    Used by {!Ops} to run operations that cannot suspend the fiber — cache
    accesses, local references, allocation, touches of resolved futures —
    as plain function calls against the currently executing engine,
    bypassing effect dispatch (a [perform] allocates the effect
    constructor and crosses the handler boundary; the simulator's hot
    paths should cost neither).  Each raises {!Must_perform} without
    having mutated anything when the operation must capture the fiber
    (a migration, a park) or when no engine is running; the caller then
    performs the corresponding effect.  Observable simulated behavior is
    identical on either path. *)

exception Must_perform

val running : unit -> t
(** The engine driving the calling fiber: one domain-local read.
    @raise Must_perform when no engine is running on this domain. *)

val seat : t -> int
(** The current thread's virtual seat — what [Ops.self] returns.  Lets
    {!Ops.call} read SELF before and after the callee from one
    {!running} lookup. *)

val fast_work : int -> unit
val fast_self : unit -> int
val fast_nprocs : unit -> int
val fast_alloc : proc:int -> int -> Gptr.t
val fast_load : Site.t -> Gptr.t -> int -> Value.t
val fast_store : Site.t -> Gptr.t -> int -> Value.t -> unit
val fast_touch : Effects.fut -> Value.t
