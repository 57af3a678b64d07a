(* The scheduler and the host domain pool.

   The engine picks each event from an indexed binary heap over
   processors ([Scheduler]).  Its pick must be exactly the linear argmin
   of the (start, prio, avail, seq) order — checked here against a
   brute-force scan on random operation sequences and against pinned
   62-processor results — and a run must stay a pure function of the
   program and configuration: byte-identical metrics snapshots, span
   streams and time-series exports run after run, faults off or on.  The
   sweep driver's domain pool must be invisible in results too. *)

open Olden
module B = Olden_benchmarks
module Event_queue = Olden_runtime.Event_queue
module Scheduler = Olden_runtime.Scheduler

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool
let int = Alcotest.int

(* Small scales so the whole suite stays fast (test_benchmarks' table). *)
let test_scale (s : B.Common.spec) =
  match s.B.Common.name with
  | "TreeAdd" -> 256
  | "Power" -> 8
  | "TSP" -> 32
  | "MST" -> 8
  | "Bisort" -> 128
  | "Voronoi" -> 64
  | "EM3D" -> 8
  | "Barnes-Hut" -> 16
  | "Perimeter" -> 16
  | "Health" -> 8
  | _ -> 16

let spec_named name =
  List.find (fun (s : B.Common.spec) -> s.B.Common.name = name) B.Registry.specs

let snapshot ?faults (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 ?faults () in
  let scale = test_scale s in
  let o, events = Trace.collect (fun () -> s.B.Common.run cfg ~scale) in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Json.to_string (B.Common.metrics_snapshot ~events s ~cfg ~scale o)

(* --- 62-processor golden results --------------------------------------- *)

(* Makespan and every Stats counter at the full 62-processor machine, for
   the workloads whose scheduling is busiest (concurrent migrations,
   return stubs and steals), under both invalidation-based schemes.  A
   scheduler that runs the (start, prio, avail, seq) total order
   reproduces these exactly. *)
let golden_p62 =
  [
    ( "TreeAdd", Config.Global, 583085,
      [
        183; 0; 4095; 4095; 4095; 24387; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        423; 0; 46848; 85995; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0
      ] );
    ( "TreeAdd", Config.Bilateral, 598445,
      [
        183; 0; 4095; 4095; 4095; 24387; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        423; 0; 46848; 85995; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0
      ] );
    ( "Bisort", Config.Global, 3048779,
      [
        2318; 1550; 320; 320; 320; 123642; 166370; 41243; 26190; 10968;
        34382; 6861; 0; 6848; 22528; 0; 360; 301; 47218; 1263328; 1245754;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
    ( "Bisort", Config.Bilateral, 3366908,
      [
        2318; 1550; 320; 320; 320; 123642; 166370; 41243; 26190; 10968;
        34066; 7177; 0; 6276; 3156; 3572; 360; 301; 35622; 1283552; 1245754;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
    ( "EM3D", Config.Global, 1303759,
      [
        1466; 0; 1240; 1240; 1240; 122350; 51200; 9580; 0; 0; 7060; 2520; 0;
        2393; 1180; 0; 62; 123; 6220; 536576; 135704; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
    ( "EM3D", Config.Bilateral, 1485676,
      [
        1466; 0; 1240; 1240; 1240; 122350; 51200; 9580; 0; 0; 7060; 2520; 0;
        2388; 0; 1178; 62; 123; 7396; 536576; 135704; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
    ( "Health", Config.Global, 584410,
      [
        1342; 0; 6800; 6800; 6800; 22273; 9570; 528; 7411; 323; 270; 258; 0;
        249; 287; 0; 24; 61; 1126; 363940; 150319; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
    ( "Health", Config.Bilateral, 624186,
      [
        1342; 0; 6800; 6800; 6800; 22273; 9570; 528; 7411; 323; 247; 281; 0;
        250; 197; 198; 24; 61; 1478; 365412; 150319; 0; 0; 0; 0; 0; 0; 0; 0;
        0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0
      ] );
  ]

let test_golden_p62 () =
  let names = List.map fst (Stats.fields (Stats.create ())) in
  List.iter
    (fun (name, coherence, makespan, counters) ->
      let s = spec_named name in
      let label = name ^ "/" ^ Config.coherence_to_string coherence in
      Site.reset ();
      let o =
        s.B.Common.run
          (Config.make ~nprocs:62 ~coherence ())
          ~scale:(test_scale s)
      in
      check bool (label ^ " verified") true o.B.Common.ok;
      check int (label ^ " makespan") makespan o.B.Common.total_cycles;
      check
        Alcotest.(list (pair string int))
        (label ^ " stats")
        (List.combine names counters)
        (Stats.fields o.B.Common.total_stats))
    golden_p62

(* --- The pick heap equals a brute-force argmin ------------------------- *)

(* A shadow of the scheduler's state: per-processor queued events and
   work-list stack as (avail, seq) pairs, plus clocks.  The brute force
   scans every candidate of every processor. *)
type model = {
  clock : int array;
  mevents : (int * int) list array;
  mwork : (int * int) list array; (* top first *)
}

let brute m =
  let best = ref None in
  let consider p key =
    match !best with
    | Some (k, _) when compare k key <= 0 -> ()
    | _ -> best := Some (key, p)
  in
  Array.iteri
    (fun p clock ->
      List.iter
        (fun (r, sq) -> consider p (max clock r, 1, r, sq))
        m.mevents.(p);
      match m.mwork.(p) with
      | (a, sq) :: _ -> consider p (max clock a, 0, a, sq)
      | [] -> ())
    m.clock;
  !best

let prop_pick_is_argmin =
  QCheck.Test.make ~name:"pick heap top = brute-force argmin" ~count:120
    QCheck.(
      pair (oneofl [ 1; 8; 62; 256 ])
        (list_of_size
           Gen.(1 -- 300)
           (triple (int_bound 9) (int_bound 1000) (int_bound 1000))))
    (fun (nprocs, ops) ->
      let m =
        {
          clock = Array.make nprocs 0;
          mevents = Array.make nprocs [];
          mwork = Array.make nprocs [];
        }
      in
      let s = Scheduler.create ~nprocs ~now:(fun p -> m.clock.(p)) in
      let seq = ref 0 in
      let fresh () =
        incr seq;
        !seq
      in
      (* pick (re-keying the touched processors) and compare *)
      let agree () =
        let p = Scheduler.pick s in
        match brute m with
        | None -> p = -1
        | Some ((start, prio, _, _), bp) ->
            p = bp
            && Scheduler.start s p = start
            && Scheduler.source s p
               = (if prio = 0 then Scheduler.Work else Scheduler.Event)
      in
      List.for_all
        (fun (kind, a, b) ->
          let p = a mod nprocs in
          (match kind with
          | 0 | 1 | 2 ->
              let sq = fresh () in
              m.mevents.(p) <- (b, sq) :: m.mevents.(p);
              Scheduler.push_event s ~proc:p ~ready_at:b ~seq:sq sq
          | 3 | 4 ->
              let sq = fresh () in
              m.mwork.(p) <- (b, sq) :: m.mwork.(p);
              Scheduler.push_work s ~proc:p ~pushed_at:b ~seq:sq sq
          | 5 | 6 -> (
              (* one engine step: take the top, run it on its clock *)
              match brute m with
              | None -> ()
              | Some ((start, prio, _, sq), bp) ->
                  let got = Scheduler.take s (Scheduler.pick s) in
                  if got <> sq then
                    QCheck.Test.fail_reportf "took seq %d, expected %d" got sq;
                  if prio = 0 then m.mwork.(bp) <- List.tl m.mwork.(bp)
                  else
                    m.mevents.(bp) <-
                      List.filter (fun (_, q) -> q <> sq) m.mevents.(bp);
                  m.clock.(bp) <- start + (b mod 50))
          | 7 ->
              m.clock.(p) <- m.clock.(p) + b;
              Scheduler.touch s p
          | 8 ->
              (* a phase barrier: many clocks move at once *)
              Array.iteri
                (fun q c -> m.clock.(q) <- c + ((q * b) mod 13))
                m.clock;
              Scheduler.touch_all s
          | _ ->
              let successor = b mod nprocs in
              if successor <> p then begin
                m.mevents.(successor) <- m.mevents.(p) @ m.mevents.(successor);
                m.mwork.(successor) <- m.mwork.(p) @ m.mwork.(successor);
                m.mevents.(p) <- [];
                m.mwork.(p) <- [];
                Scheduler.move s ~victim:p ~successor
              end);
          agree ())
        ops)

(* --- A phase barrier re-keys every processor ----------------------------- *)

let test_phase_rekeys () =
  (* X (p1, ready at base+1000) and Y (p2, ready at base+2000) are keyed
     while p1's clock sits far past both: X's start is p1's clock, Y's is
     its own ready time, so Y leads.  The main thread's barrier then
     moves every clock to the makespan; from there X, ready first, must
     run first, which only holds if the barrier re-keyed p1 and p2. *)
  let site = Site.migrate "sched.phase" in
  let order = ref [] in
  let e = Engine.create (Config.make ~nprocs:4 ()) in
  Engine.exec e (fun () ->
      let a = Ops.alloc ~proc:3 1 in
      let base = Machine.now (Engine.machine e) 0 in
      let inject proc ready_at fn = Engine.inject e ~proc ~ready_at fn in
      inject 1 base (fun () -> Ops.work 100_000);
      inject 1 (base + 1000) (fun () -> order := "X" :: !order);
      inject 2 (base + 2000) (fun () -> order := "Y" :: !order);
      Ops.store_int site a 0 1 (* migrate to p3: X and Y get keyed *);
      Ops.phase "barrier");
  check (Alcotest.list string) "ready order after the barrier" [ "X"; "Y" ]
    (List.rev !order)

(* --- Re-keys per step ---------------------------------------------------- *)

let test_rekeys_bounded () =
  (* a step re-keys the executing processor and its push targets; only
     phase barriers and failovers re-key every processor *)
  let nprocs = 62 in
  List.iter
    (fun (s : B.Common.spec) ->
      let run () =
        Site.reset ();
        let report = ref None in
        (B.Common.hooks ()).inspect_engine <-
          Some (fun e -> report := Some (Engine.scheduler_report e));
        Fun.protect
          ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
          (fun () ->
            let o =
              s.B.Common.run (Config.make ~nprocs ()) ~scale:(test_scale s)
            in
            check bool "verified" true o.B.Common.ok);
        Option.get !report
      in
      let r = run () in
      let name = s.B.Common.name in
      check bool (name ^ ": steps taken") true (r.Scheduler.steps > 0);
      check bool
        (Printf.sprintf "%s: rekeys %d <= 2 * %d steps + %d full * %d" name
           r.Scheduler.rekeys r.Scheduler.steps r.Scheduler.full_rekeys nprocs)
        true
        (r.Scheduler.rekeys
        <= (2 * r.Scheduler.steps) + (r.Scheduler.full_rekeys * nprocs));
      check bool (name ^ ": counters deterministic") true (run () = r))
    [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ]

(* --- Snapshots are byte-identical run after run ------------------------- *)

let test_run_twice sched () =
  List.iter
    (fun (s : B.Common.spec) ->
      let faults () =
        Option.map
          (fun name -> Option.get (Config.Faults.by_name name ~seed:7))
          sched
      in
      check string
        (Printf.sprintf "%s %s: run-twice" s.B.Common.name
           (Option.value ~default:"none" sched))
        (snapshot ?faults:(faults ()) s)
        (snapshot ?faults:(faults ()) s))
    B.Registry.specs

(* --- Span and time-series exports, too ----------------------------------- *)

let spans_jsonl (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  let o, spans, kept =
    Span.collect (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Span.jsonl ~folds:kept.Span.folds spans

let timeseries_jsonl (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  (B.Common.hooks ()).monitor_interval <- Some 10_000;
  let o =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  let m = Option.get (B.Common.hooks ()).last_monitor in
  (B.Common.hooks ()).last_monitor <- None;
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  Monitor.timeseries_jsonl ~site_names:(Site.labels ())
    ~header:[ ("benchmark", Json.String s.B.Common.name) ]
    m

let test_exports_identical () =
  List.iter
    (fun name ->
      let s = spec_named name in
      check string
        (name ^ " span stream: run-twice")
        (spans_jsonl s) (spans_jsonl s);
      check string
        (name ^ " timeseries: run-twice")
        (timeseries_jsonl s) (timeseries_jsonl s))
    [ "TreeAdd"; "EM3D" ]

(* --- Sweep driver: pool size is invisible -------------------------------- *)

let test_pool_order () =
  let jobs = List.init 20 Fun.id in
  let run domains =
    let vs, st = Domain_pool.map ~domains (fun i -> (i * i) + 1) jobs in
    check int "workers spawned" (min domains 20) st.Domain_pool.domains;
    check int "per-worker stats sized to the pool"
      st.Domain_pool.domains
      (Array.length st.Domain_pool.busy_seconds);
    vs
  in
  let inline = run 1 in
  check (Alcotest.list int) "submission order"
    (List.map (fun i -> (i * i) + 1) jobs)
    inline;
  check (Alcotest.list int) "pool of 4 = inline" inline (run 4)

let test_pool_exception () =
  (* the earliest failed job in submission order wins, whatever domain
     ran it, and only after the pool has drained *)
  let ran = Array.make 16 false in
  match
    Domain_pool.map ~domains:4
      (fun i ->
        ran.(i) <- true;
        if i = 5 || i = 12 then failwith (Printf.sprintf "boom %d" i))
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the sweep to re-raise"
  | exception Failure m ->
      check string "first failure by submission order" "boom 5" m;
      check bool "later jobs still ran" true (Array.for_all Fun.id ran)

let test_pool_runs_simulations () =
  (* simulator runs as pool jobs: every formerly global piece of state
     (site registry, trace emitter, hooks, engine pointer) is
     domain-local, so results off a 4-domain pool must be byte-identical
     to the inline ones *)
  let specs = [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ] in
  let points =
    List.concat_map
      (fun (s : B.Common.spec) ->
        List.map
          (fun sched -> (s.B.Common.name ^ "/" ^ sched, (s, sched)))
          [ "none"; "mix"; "crash-mix" ])
      specs
  in
  let job ~label:_ ((s : B.Common.spec), sched) =
    let faults =
      if sched = "none" then None
      else Some (Option.get (Config.Faults.by_name sched ~seed:7))
    in
    snapshot ?faults s
  in
  let run domains = Sweep.run ~domains job points in
  let inline, _ = run 1 in
  let pooled, st = run 4 in
  check int "pool of 4" 4 st.Domain_pool.domains;
  List.iter2
    (fun (a : string Sweep.point) (b : string Sweep.point) ->
      check string (a.Sweep.label ^ ": submission order kept") a.Sweep.label
        b.Sweep.label;
      check string (a.Sweep.label ^ ": pooled = inline") a.Sweep.value
        b.Sweep.value)
    inline pooled;
  check bool "efficiency within [0,1]" true
    (let e = Domain_pool.efficiency st in
     e >= 0. && e <= 1.)

(* --- Event_queue.take releases the vacated slot -------------------------- *)

let test_take_releases_payload () =
  (* after popping the last element the queue must not retain the
     payload: a weak pointer to it dies at the next major collection *)
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  (let payload = ref 42 in
   Weak.set w 0 (Some payload);
   Event_queue.push q ~ready_at:1 ~seq:0 payload;
   let got = Event_queue.take q in
   check int "payload round-trips" 42 !(got.Event_queue.payload));
  Gc.full_major ();
  Gc.full_major ();
  check bool "vacated slot does not retain the payload" true
    (Weak.get w 0 = None)

let suite =
  [
    Alcotest.test_case "62-proc makespan + stats pinned (global, bilateral)"
      `Quick test_golden_p62;
    QCheck_alcotest.to_alcotest prop_pick_is_argmin;
    Alcotest.test_case "a phase barrier re-keys every processor" `Quick
      test_phase_rekeys;
    Alcotest.test_case "re-keys per step bounded at 62 procs" `Quick
      test_rekeys_bounded;
    Alcotest.test_case "snapshots run-twice byte-identical (faults off)"
      `Quick (test_run_twice None);
    Alcotest.test_case "snapshots run-twice byte-identical (mix)" `Quick
      (test_run_twice (Some "mix"));
    Alcotest.test_case "snapshots run-twice byte-identical (crash-mix)" `Quick
      (test_run_twice (Some "crash-mix"));
    Alcotest.test_case "span + timeseries exports run-twice byte-identical"
      `Quick test_exports_identical;
    Alcotest.test_case "pool keeps submission order for any size" `Quick
      test_pool_order;
    Alcotest.test_case "pool re-raises the earliest failure" `Quick
      test_pool_exception;
    Alcotest.test_case "simulations on a pool = inline, byte for byte"
      `Quick test_pool_runs_simulations;
    Alcotest.test_case "Event_queue.take releases the vacated slot" `Quick
      test_take_releases_payload;
  ]
