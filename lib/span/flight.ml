(* The flight recorder: a bounded ring of span events kept in fixed int
   arrays so that recording is allocation-free — it can stay on for the
   whole of a chaos run without perturbing the host allocator, and when a
   run wedges (deadlock, undeliverable message, invariant failure) the
   last [capacity] events are still in memory to dump post mortem.

   The ring stores raw integers; naming the kind codes and rendering the
   dump is the span layer's job ({!Span.flight_dump}), which keeps this
   module dependency-free.  A recorder belongs to one run: the caller
   creates it with the run's dump path and hands it to the engine, so
   concurrent faulty runs cannot interleave their post-mortems. *)

let fields = 10
(* slot layout: trace_proc, trace_seq, id, parent, kind code, proc, t0,
   t1, a, b *)

type t = {
  cap : int;
  buf : int array;
  mutable head : int; (* events ever recorded; the ring keeps the last [cap] *)
  path : string;
}

let default_capacity = 512

let create ?(capacity = default_capacity) ~path () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  { cap = capacity; buf = Array.make (capacity * fields) 0; head = 0; path }

(* Record one event.  Nothing here allocates. *)
let note r ~tp ~ts ~id ~parent ~kind ~proc ~t0 ~t1 ~a ~b =
  let base = r.head mod r.cap * fields in
  let arr = r.buf in
  arr.(base) <- tp;
  arr.(base + 1) <- ts;
  arr.(base + 2) <- id;
  arr.(base + 3) <- parent;
  arr.(base + 4) <- kind;
  arr.(base + 5) <- proc;
  arr.(base + 6) <- t0;
  arr.(base + 7) <- t1;
  arr.(base + 8) <- a;
  arr.(base + 9) <- b;
  r.head <- r.head + 1

(* The retained events, oldest first, each as a [fields]-slot array. *)
let events r =
  let n = min r.head r.cap in
  let first = r.head - n in
  Array.init n (fun i ->
      let base = (first + i) mod r.cap * fields in
      Array.sub r.buf base fields)

(* Dump the retained events plus caller-supplied per-processor state to
   the recorder's path.  [render] names one event line (the span layer
   knows the kind codes).  Returns the path written. *)
let dump r ~reason ~state ~render =
  let oc = open_out r.path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "olden flight-recorder dump\nreason: %s\n" reason;
      let evs = events r in
      Printf.fprintf oc "events retained: %d (of %d recorded, ring %d)\n"
        (Array.length evs) r.head r.cap;
      if state <> [] then begin
        output_string oc "machine state:\n";
        List.iter (fun line -> Printf.fprintf oc "  %s\n" line) state
      end;
      output_string oc "last events (oldest first):\n";
      Array.iter (fun ev -> Printf.fprintf oc "  %s\n" (render ev)) evs);
  r.path
