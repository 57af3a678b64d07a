(** One run's observability: the trace emitter, the span state and the
    monitor.  The engine builds it from the sinks its caller asks for
    ({!sinks}) and hands it to every layer beneath it, so each hook is
    given its sink rather than looking it up, and two engines on one
    domain keep separate streams. *)

module Trace = Olden_trace.Trace
module Span = Olden_span.Span
module Flight = Olden_span.Flight
module Monitor = Olden_monitor.Monitor

(** What a caller asks an engine to record. *)
type sinks = {
  events : (Trace.event -> unit) option;  (** structured trace events *)
  spans : Span.Collector.t option;  (** causal spans, for export *)
  flight : Flight.t option;  (** the allocation-free flight recorder *)
  monitor_interval : int option;
      (** a {!Monitor} sampling at this many simulated cycles; the
          engine builds it over its own machine ([Engine.monitor]) *)
}

val none : sinks
(** Record nothing. *)

(** What the layers hold.  Hot guards read one field of it:
    [Trace.on o.trace], [Span.on o.span], [o.monitor <> None]. *)
type t = { trace : Trace.t; span : Span.t; monitor : Monitor.t option }

val off : t
(** Every sink off: one shared constant, so a run recording nothing
    allocates nothing for it. *)

val start : sinks -> nprocs:int -> monitor:Monitor.t option -> t
(** The emitters of one run on [nprocs] processors: a fresh trace
    context and span state for the sinks given, and the monitor the
    engine built; {!off} when there is nothing to record. *)
