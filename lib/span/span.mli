(** Causal span tracing: every dereference opens a root span carrying a
    trace context (trace id = (origin proc, sequence), parent span id)
    that is propagated into scheduled cross-processor work, so migration
    legs, return stubs, retransmits, recovery messages, and crash
    replays form one causal tree per episode.  Every hook takes the
    run's span state ({!t}) explicitly.  Zero-cost when off: one boolean
    load per hook.  On, a dereference that completes in place allocates
    a {!span} record only if the collector keeps its root (see
    {!section-retention}). *)

module Json = Olden_trace.Json

type kind =
  | Deref  (** root: one dereference episode; a = site, b = mechanism *)
  | Return  (** root: return stub to origin; a = target proc *)
  | Send  (** hop: request marshalling + send occupancy; a = target *)
  | Wire  (** hop: network latency *)
  | Penalty  (** hop: fault-injected delivery penalty; a = cycles *)
  | Queue  (** hop: waiting in the target's event queue *)
  | Replay  (** hop: crash-recovery replay before the op re-runs *)
  | Recv  (** hop: receive + cache/thread state acquisition *)
  | Service  (** hop: running the continuation at the target *)
  | Cache_service  (** hop: software-cache service after a fallback *)
  | Stall  (** hop: sender stalled; a = penalty, b = attempts *)
  | Drop  (** event: message dropped; a = attempt, b = 1 if outage *)
  | Backoff  (** event: retry backoff; a = attempt, b = wait *)
  | Delay  (** event: fault-injected latency; a = cycles *)
  | Dup  (** event: duplicate delivery suppressed *)
  | Fallback  (** event: migration degraded; a = home, b = attempts *)
  | Rpc  (** event: request/reply envelope; a = dst, b = klass code *)
  | Crash  (** event: crash + restart; a = pages lost, b = homes *)
  | Failover  (** event: fail-stop promotion; a = pages moved, b = victim *)
  | Request  (** root: one served request; a = class code, b = ingress proc *)

type span = {
  trace_proc : int;
  trace_seq : int;
  id : int;
  parent : int;  (** -1 for roots *)
  kind : kind;
  proc : int;  (** clock domain that times this span *)
  t0 : int;
  t1 : int;
  a : int;  (** kind-specific payload *)
  b : int;
}

val kind_code : kind -> int
val kind_of_code : int -> kind
val kind_name : kind -> string
val is_hop : kind -> bool
val is_root : kind -> bool

(** {1 The run's span state} *)

type t
(** One run's spans: the collector and flight recorder it feeds, the
    trace context of the episode in flight, and per-processor sequence
    numbers.  The engine is created with it and hands it to the layers
    beneath; a fresh state restarts ids and sequences. *)

val off : t
(** The state of a run with neither consumer, shared by every such run;
    nothing writes it. *)

val on : t -> bool
(** True when a collector or a flight recorder is attached: one field
    read, the guard every hot instrumentation site uses. *)

(** {1:retention Retention}

    The collector does not keep every span.  A [Deref] root whose
    mechanism is local (0) or cache (1), that has a site ([a >= 0]), and
    that has no child span is {e folded}: it adds one to its
    (site, mechanism) counter and its cycles to that counter's total
    instead of becoming a record.  It still takes its span id and trace
    sequence number, and still reaches {!last_span_on} and the flight
    recorder, so every kept span is the one an unfolded stream would
    hold.  Other roots, roots with children, and child spans are always
    kept.

    Per mechanism the collector also holds the worst {!exemplar_slots}
    [Deref] roots (append while there is room, then displace the first
    smallest held root only when the new one is strictly worse).  A root
    that enters this tail is kept even when it could fold, so every
    exemplar names a root in the stream. *)

type fold = {
  site : int;
  mech : int;  (** 0 = local, 1 = cache *)
  count : int;  (** roots folded *)
  cycles : int;  (** their summed durations *)
}

type exemplar = {
  ex_mech : int;  (** mechanism code, as in a [Deref] root's [b] *)
  ex_cycles : int;  (** the root's duration *)
  ex_trace_proc : int;  (** trace id: origin processor... *)
  ex_trace_seq : int;  (** ...and root sequence number *)
}

type retention = {
  folds : fold array;  (** counters with [count > 0], in (site, mech) order *)
  exemplars : exemplar list;
      (** every held exemplar, worst first, ties broken by trace id *)
}

val exemplar_slots : int
(** Exemplars held per mechanism. *)

module Collector : sig
  type t
  (** The kept spans in emission order, held in fixed-size chunks:
      adding never copies earlier spans; plus the fold counters and the
      exemplar tails. *)

  val chunk_size : int
  (** Spans per chunk. *)

  val create : unit -> t
  val length : t -> int

  val spans : t -> span array
  (** The kept spans in emission order, in one array of exact size. *)

  val retention : t -> retention
end

val create :
  ?collector:Collector.t -> ?flight:Flight.t -> nprocs:int -> unit -> t
(** A fresh state for a run on [nprocs] processors feeding the given
    consumers; {!on} is false when neither is given. *)

(** {1 Flight recorder} *)

val flight_dump : t -> reason:string -> state:string list -> string option
(** Write the flight recorder's retained events plus per-processor state
    lines to its path; [None] when the state has no flight recorder. *)

(** {1 Trace context}

    The emitting side keeps the episode in flight as mutable context:
    the trace id, the current parent span id, and the open root.  All
    writes are guarded by {!on} at the call sites. *)

type saved
(** Snapshot of the trace context, captured into scheduled-event
    closures ([save]) and reinstated when they run ([restore]) — this is
    how the trace context crosses the wire. *)

val no_ctx : saved
(** Preallocated empty snapshot (for closures built while off). *)

val save : t -> saved
val restore : t -> saved -> unit
val clear : t -> unit

val root_open : t -> bool
val open_root : t -> kind:kind -> proc:int -> t0:int -> unit
val close_root : t -> t1:int -> a:int -> b:int -> unit
(** Emit the open root (parent -1) and clear the context; no-op when no
    root is open. *)

val root :
  t -> kind:kind -> proc:int -> t0:int -> t1:int -> a:int -> b:int -> unit
(** Emit one complete root episode (parent -1) under a fresh trace id
    without touching the trace context — used for request roots, which
    are recorded at completion so the dereference roots inside the
    request body keep their own episodes. *)

val child_in :
  t -> kind:kind -> proc:int -> t0:int -> t1:int -> a:int -> b:int -> unit
(** Emit one span under the current context. *)

val parent : t -> int

val enter : t -> int
(** Reserve a fresh span id and make it the current parent — children
    emitted until the matching {!exit_emit} nest under it. *)

val exit_emit :
  t -> id:int -> prev:int -> kind:kind -> proc:int -> t0:int -> t1:int ->
  a:int -> b:int -> unit
(** Emit the envelope span reserved by {!enter} and restore [prev] as
    the parent. *)

val trace_proc : t -> int
(** Origin processor of the episode in flight (-1 when none). *)

val last_span_on : t -> int -> int
(** Last span id emitted on a processor (-1 if none) — surfaces in the
    deadlock report and the flight-recorder dump. *)

(** {1 Lookup forms}

    For callers that hold no span state: {!collect} attaches a collector
    to a domain-local slot for the duration of a thunk, and {!is_on} and
    {!child} read that slot.  Engines never read it. *)

val is_on : unit -> bool
(** Whether a {!collect} is running on this domain. *)

val child : kind:kind -> proc:int -> t0:int -> t1:int -> a:int -> b:int -> unit
(** {!child_in} on the slot's state; a no-op outside {!collect}. *)

val collect : (unit -> 'a) -> 'a * span array * retention
(** Run [f] with a fresh collector in the slot; returns its result, the
    kept spans in emission order, and the folds and exemplars. *)

(** {1 Collection & export} *)

val span_json : span -> Json.t

val folded : fold array -> int
(** The roots the counters account for: the sum of their [count]s. *)

val jsonl : folds:fold array -> span array -> string
(** The byte-stable [olden-spans/v2] export: a header line
    [{"schema":"olden-spans/v2","spans":K,"folded":F}] ([F] the folded
    roots), the [K] kept spans one per line in emission order, then one
    [{"fold":{"site":s,"mech":"local"|"cache","count":n,"cycles":c}}]
    line per counter in (site, mech) order. *)

val chrome_json : nprocs:int -> span array -> Json.t
val chrome_to_string : nprocs:int -> span array -> string
(** Chrome trace_event export of the kept spans (folded roots are not
    drawn): complete slices per processor track plus flow arrows where a
    child span runs on a different processor. *)

(** {1 Episode reconstruction} *)

type node = { span : span; mutable kids : node list }

val episode_tree :
  span array -> trace_proc:int -> trace_seq:int -> node option
(** The causal tree of one episode (children ordered by t0 then id);
    [None] if that trace id never completed a root span. *)

val describe : site_name:(int -> string) -> span -> string
(** One human-readable line for a span. *)

val explain :
  Buffer.t -> site_name:(int -> string) -> span array -> trace_proc:int ->
  trace_seq:int -> unit
(** Pretty-print one episode's causal chain: the tree, then hop
    accounting where direct hop children plus a synthesized "(compute)"
    residual sum exactly to the episode latency. *)
