(** Structured event tracing for the Olden runtime.

    The run's emitter ({!t}) receives every event the engine, cache
    system, and coherence directories emit; the engine is created with
    it and hands it to the layers beneath.  Tracing is zero-cost when
    disabled: emission sites are written

    {[ if Trace.on t.trace then Trace.emit t.trace { ... } ]}

    so with no sink nothing is allocated — only one field of an
    already-held record is read.  Event streams are deterministic:
    the engine is a pure function of the program and configuration, and
    events are emitted in scheduling order. *)

type kind =
  | Migrate_send of { target : int }
      (** a computation migration leaves for [target] *)
  | Migrate_arrive of { source : int }
      (** the migrated thread restarts here *)
  | Return_send of { target : int }  (** a return stub fires *)
  | Return_arrive of { source : int }
  | Future_spawn of { fid : int }
  | Future_resolve of { fid : int; waiters : int }
  | Future_touch of { fid : int; parked : bool }
  | Steal  (** a continuation popped from the local work list *)
  | Cache_hit of { home : int; page : int; line : int }
  | Cache_miss of { home : int; page : int; line : int }
      (** a line fetch from [home] *)
  | Cache_flush of { entries : int }
      (** local scheme: wholesale invalidation *)
  | Suspect_all  (** bilateral scheme: acquire marks every page suspect *)
  | Revalidate of { home : int; page : int; dropped : int }
  | Inval_send of { target : int; page : int }
  | Inval_recv of { source : int; page : int; dropped : int }
  | Dir_write of { page : int; line : int }
      (** home directory stamps a written line (bilateral) *)
  | Dir_release of { page : int; ts : int }
      (** home directory timestamp bump at a release *)
  | Remote_alloc of { home : int; words : int }
  | Phase_mark of string
  | Fault_drop of { dst : int; attempt : int; outage : bool }
      (** delivery attempt [attempt] toward [dst] was lost *)
  | Fault_delay of { dst : int; cycles : int }
      (** a delivery arrived [cycles] late *)
  | Fault_dup of { dst : int }  (** a delivery arrived twice *)
  | Retry of { dst : int; attempt : int; wait : int }
      (** the sender waited [wait] cycles, then retransmitted *)
  | Migrate_fallback of { home : int; attempts : int }
      (** migration to [home] gave up after [attempts]; caching instead *)
  | Crash of { pages_lost : int }
      (** [proc] crashed, wiping [pages_lost] live cached page entries *)
  | Recover of { homes : int; stall : int }
      (** [proc] completed warm restart, announcing to [homes] homes and
          stalling for [stall] cycles *)
  | Failstop of { pages_lost : int }
      (** [proc] died for good, dropping [pages_lost] live cached pages *)
  | Failover of { victim : int; pages : int; homes : int }
      (** [proc] was promoted: [pages] home pages of [victim] re-homed
          here, [homes] live processors notified *)

type event = {
  time : int;  (** simulated cycles on [proc]'s clock *)
  proc : int;
  tid : int;  (** simulated thread id; -1 when no thread applies *)
  site : int;  (** dereference-site id; -1 when no site applies *)
  kind : kind;
}

type t
(** One run's emitter: a sink plus the thread/site context the engine
    deposits for the layers beneath it. *)

val off : t
(** The emitter of a run with no sink, shared by every such run. *)

val create : (event -> unit) -> t
(** A fresh emitter delivering to the sink; one per run. *)

val on : t -> bool
(** Whether the emitter has a sink: one field read.  Emission sites
    guard on this so the disabled path allocates nothing. *)

val emit : t -> event -> unit
(** Deliver to the sink; a no-op for {!off}. *)

(** {2 Emitter context}

    The cache and directory layers run beneath the engine and do not
    know the current thread or dereference site; the engine deposits
    them here (guarded, so this too is free when tracing is off). *)

val set_thread : t -> int -> unit
val set_site : t -> int -> unit
val thread : t -> int
val site : t -> int

(** {2 Collecting} *)

module Collector : sig
  type t

  val create : unit -> t
  val add : t -> event -> unit
  val length : t -> int
  val events : t -> event array
end

(** {2 Names and serialization} *)

val kind_name : kind -> string

val kind_args : kind -> (string * Json.t) list
(** Payload fields beyond the common stamps, in a fixed order. *)

val event_json : event -> Json.t
(** The JSONL schema: [{"t":..,"proc":..,"tid":..,"site":..,"ev":..,...}]. *)
