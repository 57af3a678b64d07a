(** Bounded allocation-free flight recorder for span events.

    A fixed ring of int slots retains the last [capacity] span events of
    one run; on a failure (deadlock, undeliverable message, invariant
    violation) {!dump} writes them — plus caller-supplied machine state —
    to the recorder's path for post-mortem debugging.  Recording costs a
    few integer stores per event and never allocates.  Kind codes are
    opaque here; the span layer ({!Span.flight_dump}) renders them. *)

type t
(** One run's ring and dump path. *)

val create : ?capacity:int -> path:string -> unit -> t
(** A fresh ring of [capacity] events (default 512) that {!dump} writes
    to [path].
    @raise Invalid_argument if [capacity < 1]. *)

val note :
  t -> tp:int -> ts:int -> id:int -> parent:int -> kind:int -> proc:int ->
  t0:int -> t1:int -> a:int -> b:int -> unit
(** Record one event.  Allocation-free. *)

val dump :
  t -> reason:string -> state:string list -> render:(int array -> string) ->
  string
(** Write the dump file; returns its path.  [render] names one event,
    given as its slots: trace proc, trace seq, id, parent, kind code,
    proc, t0, t1, a, b. *)
