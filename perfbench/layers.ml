(* Per-layer timings: each calls one layer's public function in a loop
   and reports host nanoseconds per call (the median of [reps] timed
   loops).  Loop sizes are fixed, so every figure times the same work. *)

module C = Olden_config
module Engine = Olden_runtime.Engine
module Ops = Olden_runtime.Ops
module Site = Olden_runtime.Site
module Event_queue = Olden_runtime.Event_queue
module Translation = Olden_cache.Translation
module Write_log = Olden_cache.Write_log
module Directory = Olden_cache.Directory
module Span = Olden_span.Span
module Monitor = Olden_monitor.Monitor
module Hostperf = Olden_benchmarks.Hostperf

let now = Workload.now
let reps = 5

(* Median ns per op of [reps] runs of [loop], which performs [n] ops and
   may return its own elapsed seconds (for loops timed inside an engine). *)
let per_op ~n loop =
  Stat.median
    (List.init reps (fun _ ->
         let t0 = now () in
         let inner = loop () in
         let dt = match inner with Some s -> s | None -> now () -. t0 in
         dt *. 1e9 /. float_of_int n))

(* Sites are registered globally; make each once. *)
let hop_site = lazy (Site.migrate "perfbench.hop")
let local_site = lazy (Site.migrate "perfbench.local")

(* A thread that hops round-robin over every processor: one migration per
   load, so the event count is the same at any processor count and only
   the scheduler's per-event work changes with P. *)
let engine_ns_per_event ~nprocs ~hops =
  let site = Lazy.force hop_site in
  let events = ref 1 in
  let ns =
    per_op ~n:1 (fun () ->
        let t0 = now () in
        let report =
          Engine.run (C.make ~nprocs ()) (fun () ->
              let cells = Array.init nprocs (fun p -> Ops.alloc ~proc:p 1) in
              for i = 1 to hops do
                ignore (Ops.load site cells.(i mod nprocs) 0)
              done)
        in
        let dt = now () -. t0 in
        events := Hostperf.events_of report.Engine.stats;
        Some dt)
  in
  ns /. float_of_int !events

let event_queue_push_take ~n =
  per_op ~n (fun () ->
      let q = Event_queue.create () in
      for i = 0 to 15 do
        Event_queue.push q ~ready_at:(i * 7 land 31) ~seq:i ()
      done;
      for i = 16 to n + 15 do
        Event_queue.push q ~ready_at:(i * 7 land 1023) ~seq:i ();
        ignore (Sys.opaque_identity (Event_queue.take q))
      done;
      None)

(* Time [body] inside a running engine, excluding engine start-up. *)
let in_engine ~nprocs body =
  let dt = ref 0. in
  ignore (Engine.run (C.make ~nprocs ()) (fun () -> dt := body ()));
  Some !dt

let fast_load ~n =
  let site = Lazy.force local_site in
  per_op ~n (fun () ->
      in_engine ~nprocs:1 (fun () ->
          let cell = Ops.alloc_local 4 in
          let t0 = now () in
          for _ = 1 to n do
            ignore (Sys.opaque_identity (Ops.load site cell 0))
          done;
          now () -. t0))

(* A call that migrates to processor 1 for one load and returns. *)
let migrate_rtt ~n =
  let site = Lazy.force hop_site in
  per_op ~n (fun () ->
      in_engine ~nprocs:2 (fun () ->
          let cell = Ops.alloc ~proc:1 1 in
          let t0 = now () in
          for _ = 1 to n do
            ignore (Ops.call (fun () -> Ops.load site cell 0))
          done;
          now () -. t0))

let pages = 256

let translation_table () =
  let t = Translation.create () in
  for g = 0 to pages - 1 do
    ignore (Translation.insert t ~gpage:g ~home:(g land 7) ~page_index:g)
  done;
  t

let probe_hit ~n =
  let t = translation_table () in
  per_op ~n (fun () ->
      for i = 1 to n do
        ignore (Sys.opaque_identity (Translation.probe t (i land (pages - 1))))
      done;
      None)

let probe_miss ~n =
  let t = translation_table () in
  per_op ~n (fun () ->
      for i = 1 to n do
        ignore
          (Sys.opaque_identity (Translation.probe t (pages + (i land 1023))))
      done;
      None)

let write_log_record ~n =
  per_op ~n (fun () ->
      let log = Write_log.create () in
      for i = 1 to n do
        Write_log.record log ~gpage:(i land 63) ~line:((i lsr 6) land 15)
          ~home:(i land 7);
        if i land 1023 = 0 then Write_log.clear_dirty log
      done;
      None)

let directory_add_sharer ~n =
  per_op ~n (fun () ->
      let d = Directory.create () in
      for i = 1 to n do
        Directory.add_sharer d ~page_index:(i land 255) ~proc:((i lsr 8) land 31)
      done;
      None)

let words = 16 * 1024

let memory () =
  let m = Memory.create ~nprocs:1 in
  let base = Memory.alloc m ~proc:0 words in
  for i = 0 to words - 1 do
    Memory.store m base i (Value.Int i)
  done;
  (m, base)

let blit_line ~n =
  let m, _ = memory () in
  let dst = Array.make 16 Value.Nil in
  per_op ~n (fun () ->
      for i = 1 to n do
        Memory.blit_line m ~proc:0 ~line_index:(i land 1023) ~dst ~dst_pos:0
      done;
      None)

let memory_load ~n =
  let m, base = memory () in
  per_op ~n (fun () ->
      for i = 1 to n do
        ignore (Sys.opaque_identity (Memory.load m base (i land (words - 1))))
      done;
      None)

(* An instrumentation site: one guard read, and a span when a sink is
   installed. *)
let emit ~n () =
  for i = 1 to n do
    if Span.is_on () then
      Span.child ~kind:Span.Service ~proc:0 ~t0:i ~t1:(i + 1) ~a:0 ~b:0
  done

(* One disabled hook: no sink installed. *)
let emit_off ~n =
  per_op ~n (fun () ->
      emit ~n ();
      None)

(* One span into the collector the drivers install. *)
let emit_on ~n =
  per_op ~n (fun () ->
      let t0 = now () in
      ignore (Sys.opaque_identity (Span.collect (emit ~n)));
      Some (now () -. t0))

let monitor_record ~n =
  let zeros () = Array.make 1 0 in
  per_op ~n (fun () ->
      let m =
        Monitor.create ~interval:1_000_000 ~nprocs:1
          ~probe:
            {
              Monitor.stats = (fun () -> []);
              busy = zeros;
              comm = zeros;
              recovery_stall = zeros;
            }
      in
      Monitor.install m;
      let t0 = now () in
      Fun.protect ~finally:Monitor.uninstall (fun () ->
          for i = 1 to n do
            Monitor.deref ~sid:0 ~mech:Monitor.Cache ~cycles:(i land 4095)
          done);
      Some (now () -. t0))

(* Every timing: metric name, base, and the loop, its sizes divided by
   [k] (1 for a full run). *)
let all ~k =
  let n base = max 1 (base / k) in
  let loop = "host ns per call, median of 5 loops" in
  [
    ( "runtime.engine.ns_per_event.p8",
      "host ns per event of a synthetic 8-proc Engine.run",
      fun () -> engine_ns_per_event ~nprocs:8 ~hops:(n 100_000) );
    ( "runtime.engine.ns_per_event.p62",
      "host ns per event of the same run at 62 procs",
      fun () -> engine_ns_per_event ~nprocs:62 ~hops:(n 100_000) );
    ( "runtime.event_queue.push_take_ns",
      loop,
      fun () -> event_queue_push_take ~n:(n 1_000_000) );
    ("runtime.ops.fast_load_ns", loop, fun () -> fast_load ~n:(n 1_000_000));
    ("runtime.ops.migrate_rtt_ns", loop, fun () -> migrate_rtt ~n:(n 50_000));
    ( "cache.translation.probe_hit_ns",
      loop,
      fun () -> probe_hit ~n:(n 2_000_000) );
    ( "cache.translation.probe_miss_ns",
      loop,
      fun () -> probe_miss ~n:(n 2_000_000) );
    ( "cache.write_log.record_ns",
      loop,
      fun () -> write_log_record ~n:(n 1_000_000) );
    ( "cache.directory.add_sharer_ns",
      loop,
      fun () -> directory_add_sharer ~n:(n 1_000_000) );
    ("heap.memory.blit_line_ns", loop, fun () -> blit_line ~n:(n 1_000_000));
    ("heap.memory.load_ns", loop, fun () -> memory_load ~n:(n 2_000_000));
    ("span.emit_off_ns", loop, fun () -> emit_off ~n:(n 2_000_000));
    ("span.emit_on_ns", loop, fun () -> emit_on ~n:(n 200_000));
    ("monitor.record_ns", loop, fun () -> monitor_record ~n:(n 1_000_000));
  ]
