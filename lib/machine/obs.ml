(* One run's observability, passed down explicitly: the engine is
   created with the sinks its caller wants, builds the run's emitters
   from them, and hands the result to the machine, cache, directory,
   recovery and failover layers.  Nothing is looked up per hook, and two
   engines on one domain never share a sink. *)

module Trace = Olden_trace.Trace
module Span = Olden_span.Span
module Flight = Olden_span.Flight
module Monitor = Olden_monitor.Monitor

type sinks = {
  events : (Trace.event -> unit) option;
  spans : Span.Collector.t option;
  flight : Flight.t option;
  monitor_interval : int option;
}

let none =
  { events = None; spans = None; flight = None; monitor_interval = None }

type t = { trace : Trace.t; span : Span.t; monitor : Monitor.t option }

let off = { trace = Trace.off; span = Span.off; monitor = None }

let start sinks ~nprocs ~monitor =
  match (sinks, monitor) with
  | { events = None; spans = None; flight = None; _ }, None -> off
  | { events; spans; flight; _ }, _ ->
      {
        trace =
          (match events with
          | Some sink -> Trace.create sink
          | None -> Trace.off);
        span =
          (match (spans, flight) with
          | None, None -> Span.off
          | collector, flight -> Span.create ?collector ?flight ~nprocs ());
        monitor;
      }
