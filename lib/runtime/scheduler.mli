(** The engine's run queues and the pick structure over them.

    Each processor owns an event queue and a LIFO work list.  Its
    candidate is whichever of the two tops comes first in the global
    order (start, prio, avail, seq), where start = max(clock, avail) and
    a work-list steal (prio 0) beats an event (prio 1) at equal start.
    Candidate keys are cached per processor and ordered by an indexed
    binary min-heap over processors, so {!pick} costs O(log P) per
    re-keyed processor instead of a scan of all P.

    The caller keeps the cache exact: whenever a processor's clock moves
    outside {!push_event}, {!push_work}, {!take} or {!move} (which touch
    the processors they change), it must {!touch} that processor, or
    {!touch_all} when many clocks moved at once. *)

type 'a t

type source = Event | Work

type report = {
  steps : int;  (** picks that found a runnable candidate *)
  rekeys : int;  (** per-processor key refreshes in the pick heap *)
  full_rekeys : int;
      (** {!touch_all} calls (phase barriers and failovers in the engine) *)
}

val create : nprocs:int -> now:(int -> int) -> 'a t
(** [now p] reads processor [p]'s clock. *)

val push_event : 'a t -> proc:int -> ready_at:int -> seq:int -> 'a -> unit
val push_work : 'a t -> proc:int -> pushed_at:int -> seq:int -> 'a -> unit

val touch : 'a t -> int -> unit
(** The processor's cached key may be stale (its clock moved). *)

val touch_all : 'a t -> unit

val pick : 'a t -> int
(** Re-key the touched processors and return the one holding the globally
    minimal candidate, or [-1] when nothing is runnable. *)

val start : 'a t -> int -> int
(** Start time of the candidate of the processor {!pick} returned. *)

val source : 'a t -> int -> source

val take : 'a t -> int -> 'a
(** Remove the candidate of the processor {!pick} just returned (and touch
    it: the task about to run moves its clock). *)

val events : 'a t -> int -> int
(** Queued events on a processor. *)

val works : 'a t -> int -> int
(** Saved continuations on a processor's work list. *)

val move : 'a t -> victim:int -> successor:int -> unit
(** Re-home every queued event (keys unchanged) and every work-list entry
    (LIFO order kept, on top of the successor's own) from [victim] to
    [successor]. *)

val report : 'a t -> report
