(* Benchmark runs with a collector on: set the hook [Common.execute]
   builds the run's sinks from, run, and take the collected stream. *)

module B = Olden_benchmarks

let with_hook set f =
  set true;
  Fun.protect ~finally:(fun () -> set false) f

(* [f]'s result and the trace events of the last run it executed. *)
let traced f =
  let h = B.Common.hooks () in
  let r = with_hook (fun b -> h.record_trace <- b) f in
  let events = Option.get h.last_trace in
  h.last_trace <- None;
  (r, events)

(* [f]'s result, and the kept spans and retention of its last run. *)
let spanned f =
  let h = B.Common.hooks () in
  let r = with_hook (fun b -> h.record_spans <- b) f in
  let spans = Option.get h.last_spans in
  let kept = Option.get h.last_retention in
  h.last_spans <- None;
  h.last_retention <- None;
  (r, spans, kept)
