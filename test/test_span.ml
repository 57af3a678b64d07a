(* Causal span tracing: the golden 2-processor treeadd span tree, byte
   determinism of the olden-spans/v2 export across all ten benchmarks,
   exemplar trace ids naming real completed episodes whose root duration
   is the recorded latency, the exemplar tail against the 16-slot scan it
   replaced, kept plus folded roots accounting for every dereference the
   monitor saw, exact hop tiling of migration episodes, the
   flight-recorder dump on a forced deadlock, zero perturbation of the
   simulation whether tracing is on or off, and the observability
   switches an engine captures at [create]: sinks installed after it
   still receive everything, and the engine refuses to run on another
   domain. *)

open Olden
module B = Olden_benchmarks

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Small scales so the whole suite stays fast (test_chaos's table). *)
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

let spec name =
  List.find (fun (s : B.Common.spec) -> s.B.Common.name = name)
    B.Registry.specs

(* One spanned run: fresh site registry so site ids are reproducible. *)
let spanned ?faults ?(nprocs = 8) ?(coherence = Config.Local)
    (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs ~coherence ?faults () in
  let o, spans, kept =
    Span.collect (fun () -> s.B.Common.run cfg ~scale:(test_scale s))
  in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (o, spans, kept)

(* --- Golden 2-processor treeadd span tree -------------------------------- *)

let run_treeadd () =
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, spans, kept =
    Span.collect (fun () ->
        B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000)
  in
  check bool "verified" true o.B.Common.ok;
  (spans, kept)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let spans, kept = run_treeadd () in
  let got = Span.jsonl ~folds:kept.Span.folds spans in
  let want = read_file "golden/treeadd_p2_spans.jsonl" in
  check string "matches the committed golden span stream" want got

let test_treeadd_stream () =
  let spans, _ = run_treeadd () in
  check bool "spans emitted" true (Array.length spans > 0);
  let count p =
    Array.fold_left (fun n s -> if p s then n + 1 else n) 0 spans
  in
  (* treeadd migrates: its episodes carry the full hop chain *)
  check bool "migrate episodes present" true
    (count (fun (s : Span.span) ->
         s.Span.kind = Span.Deref && s.Span.b = 2) > 0);
  check bool "send hops present" true
    (count (fun s -> s.Span.kind = Span.Send) > 0);
  (* every non-root names a parent that exists, with the same trace id *)
  let by_id = Hashtbl.create 512 in
  Array.iter (fun (s : Span.span) -> Hashtbl.replace by_id s.Span.id s) spans;
  Array.iter
    (fun (s : Span.span) ->
      if s.Span.parent >= 0 then
        match Hashtbl.find_opt by_id s.Span.parent with
        | None -> Alcotest.failf "span %d: parent %d missing" s.Span.id s.Span.parent
        | Some p ->
            check bool "child shares its parent's trace id" true
              (p.Span.trace_proc = s.Span.trace_proc
              && p.Span.trace_seq = s.Span.trace_seq))
    spans

(* MST's accumulation phase sends return stubs home: their roots carry
   the same propagated hop chain as migrations. *)
let test_return_stub_roots () =
  let _, spans, _ = spanned (spec "MST") in
  let returns =
    Array.to_list spans
    |> List.filter (fun (s : Span.span) -> s.Span.kind = Span.Return)
  in
  check bool "return-stub roots present" true (returns <> []);
  List.iter
    (fun (r : Span.span) ->
      check int "return roots have no parent" (-1) r.Span.parent;
      let kids =
        Array.to_list spans
        |> List.filter (fun (s : Span.span) -> s.Span.parent = r.Span.id)
      in
      check bool "return root carries its hop chain" true
        (List.exists (fun (s : Span.span) -> s.Span.kind = Span.Send) kids))
    returns

(* --- Determinism: same seed, byte-identical export ------------------------ *)

let test_run_twice_byte_identical () =
  List.iter
    (fun (s : B.Common.spec) ->
      let _, spans1, kept1 = spanned s in
      let _, spans2, kept2 = spanned s in
      check string
        (s.B.Common.name ^ " olden-spans/v2 byte-identical")
        (Span.jsonl ~folds:kept1.Span.folds spans1)
        (Span.jsonl ~folds:kept2.Span.folds spans2))
    B.Registry.specs

(* --- Exemplars name real episodes ----------------------------------------- *)

(* Run with the monitor and the span collector together (what olden-run
   explain does) and hand back both. *)
let monitored_spanned ?faults ?(nprocs = 8) ?(coherence = Config.Local)
    (s : B.Common.spec) =
  Site.reset ();
  let cfg = Config.make ~nprocs ~coherence ?faults () in
  (B.Common.hooks ()).monitor_interval <- Some 10_000;
  let o, spans, kept =
    Fun.protect
      ~finally:(fun () -> (B.Common.hooks ()).monitor_interval <- None)
      (fun () ->
        Span.collect (fun () -> s.B.Common.run cfg ~scale:(test_scale s)))
  in
  let m = Option.get (B.Common.hooks ()).last_monitor in
  (B.Common.hooks ()).last_monitor <- None;
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (m, spans, kept)

let root_of spans ~trace_proc ~trace_seq =
  Array.fold_left
    (fun acc (s : Span.span) ->
      if
        s.Span.parent = -1
        && s.Span.trace_proc = trace_proc
        && s.Span.trace_seq = trace_seq
      then Some s
      else acc)
    None spans

(* Every exemplar the collector holds names a kept dereference root
   whose duration is its latency, and the p99 filter [olden-run explain]
   applies leaves some. *)
let check_exemplars name (m : Monitor.t) spans (kept : Span.retention) =
  let tail =
    List.filter
      (fun (e : Span.exemplar) ->
        e.Span.ex_cycles
        >= Monitor.deref_quantile m
             (Monitor.mech_of_index e.Span.ex_mech)
             0.99)
      kept.Span.exemplars
  in
  check bool (name ^ " exemplars at or above p99") true (tail <> []);
  List.iter
    (fun (e : Span.exemplar) ->
      match
        root_of spans ~trace_proc:e.Span.ex_trace_proc
          ~trace_seq:e.Span.ex_trace_seq
      with
      | None ->
          Alcotest.failf "%s: exemplar trace %d:%d has no completed root"
            name e.Span.ex_trace_proc e.Span.ex_trace_seq
      | Some root ->
          check bool (name ^ " exemplar root is a dereference") true
            (root.Span.kind = Span.Deref);
          check int
            (name ^ " exemplar latency equals the root span duration")
            e.Span.ex_cycles
            (root.Span.t1 - root.Span.t0);
          check int
            (name ^ " exemplar mechanism matches the root")
            e.Span.ex_mech root.Span.b)
    kept.Span.exemplars

let test_exemplars_real () =
  let m, spans, kept =
    monitored_spanned ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D")
  in
  check_exemplars "em3d/mix" m spans kept;
  let m, spans, kept =
    monitored_spanned
      ~faults:(Config.Faults.crash_mix ~seed:2 ())
      ~coherence:Config.Global (spec "Health")
  in
  check_exemplars "health/crash-mix" m spans kept

(* --- Retention ------------------------------------------------------------ *)

(* The 16-slot scan the monitor used to run on every dereference: append
   while there is room, else replace the first smallest held entry when
   the new one is strictly worse.  Kept as the reference for the
   collector's cached-minimum tail. *)
let reference_tail stream =
  let slots = Span.exemplar_slots in
  let n = Array.make 4 0 in
  let cy = Array.make_matrix 4 slots 0 in
  let tr = Array.make_matrix 4 slots (0, 0) in
  let entered =
    List.map
      (fun (m, cycles, trace) ->
        if n.(m) < slots then begin
          cy.(m).(n.(m)) <- cycles;
          tr.(m).(n.(m)) <- trace;
          n.(m) <- n.(m) + 1;
          true
        end
        else begin
          let worst = ref 0 in
          for i = 1 to n.(m) - 1 do
            if cy.(m).(i) < cy.(m).(!worst) then worst := i
          done;
          if cycles > cy.(m).(!worst) then begin
            cy.(m).(!worst) <- cycles;
            tr.(m).(!worst) <- trace;
            true
          end
          else false
        end)
      stream
  in
  let held =
    List.concat
      (List.init 4 (fun m ->
           List.init n.(m) (fun i ->
               let tp, ts = tr.(m).(i) in
               (cy.(m).(i), tp, ts, m))))
    |> List.sort (fun (c1, tp1, ts1, _) (c2, tp2, ts2, _) ->
           if c1 <> c2 then compare c2 c1 else compare (tp1, ts1) (tp2, ts2))
  in
  (entered, held)

(* Streams of (mechanism, cycles): ties, fewer than 16 per mechanism,
   all-equal and rising values. *)
let stream_gen =
  let open QCheck.Gen in
  let cycles =
    oneof
      [
        list_size (int_range 0 120) (int_range 0 5);
        list_size (int_range 0 15) (int_range 0 1000);
        map2 (fun n v -> List.init n (fun _ -> v)) (int_range 0 80) (int_range 0 9);
        map (fun n -> List.init n Fun.id) (int_range 0 120);
      ]
  in
  cycles >>= fun cs ->
  map (fun ms -> List.combine ms cs) (list_repeat (List.length cs) (int_range 0 3))

(* Drive the collector with synthetic dereference roots: root [i] opens
   on processor [i mod 3], has a child span when [i mod 7 = 3], and has
   no site when [i mod 11 = 5].  Held exemplars must match the reference
   scan, and exactly the roots that entered the tail, had a child, had
   no site, or are not local/cache must be kept. *)
let prop_tail_matches_scan =
  QCheck.Test.make ~count:300 ~name:"exemplar tail matches the 16-slot scan"
    (QCheck.make stream_gen) (fun stream ->
      Span.reset ();
      let sw = Span.switch () in
      let seq = Array.make 3 0 in
      let (), spans, kept =
        Span.collect (fun () ->
            List.iteri
              (fun i (m, cycles) ->
                Span.open_root sw ~kind:Span.Deref ~proc:(i mod 3) ~t0:0;
                if i mod 7 = 3 then
                  Span.child ~kind:Span.Rpc ~proc:0 ~t0:0 ~t1:0 ~a:0 ~b:0;
                Span.close_root sw ~t1:cycles
                  ~a:(if i mod 11 = 5 then -1 else i mod 5)
                  ~b:m)
              stream)
      in
      let traced =
        List.mapi
          (fun i (m, cycles) ->
            let p = i mod 3 in
            let ts = seq.(p) in
            seq.(p) <- ts + 1;
            (m, cycles, (p, ts)))
          stream
      in
      let entered, held = reference_tail traced in
      let got =
        List.map
          (fun (e : Span.exemplar) ->
            (e.Span.ex_cycles, e.Span.ex_trace_proc, e.Span.ex_trace_seq,
             e.Span.ex_mech))
          kept.Span.exemplars
      in
      let want_kept =
        List.concat
          (List.mapi
             (fun i ((m, _, trace), entered) ->
               if entered || i mod 7 = 3 || i mod 11 = 5 || m > 1 then [ trace ]
               else [])
             (List.combine traced entered))
      in
      let got_kept =
        Array.to_list spans
        |> List.filter_map (fun (s : Span.span) ->
               if s.Span.kind = Span.Deref then
                 Some (s.Span.trace_proc, s.Span.trace_seq)
               else None)
      in
      let folded_cycles =
        Array.fold_left (fun n (f : Span.fold) -> n + f.Span.cycles) 0
          kept.Span.folds
      in
      let kept_cycles =
        Array.fold_left
          (fun n (s : Span.span) ->
            if s.Span.kind = Span.Deref then n + s.Span.t1 - s.Span.t0 else n)
          0 spans
      in
      got = held && got_kept = want_kept
      && Span.folded kept.Span.folds + List.length got_kept
         = List.length stream
      && folded_cycles + kept_cycles
         = List.fold_left (fun n (_, c) -> n + c) 0 stream)

(* Per mechanism, the kept dereference roots plus the folded counters are
   exactly the dereferences the monitor observed, cycle for cycle. *)
let test_fold_accounting () =
  List.iter
    (fun (s : B.Common.spec) ->
      let m, spans, kept = monitored_spanned s in
      let observed = Monitor.deref_summaries m in
      for mech = 0 to 3 do
        let name = Monitor.mech_name (Monitor.mech_of_index mech) in
        let count, sum =
          match List.assoc_opt name observed with
          | Some (x : Monitor.summary) -> (x.Monitor.count, x.Monitor.sum)
          | None -> (0, 0)
        in
        let roots, root_cy =
          Array.fold_left
            (fun (n, c) (sp : Span.span) ->
              if sp.Span.kind = Span.Deref && sp.Span.b = mech then
                (n + 1, c + sp.Span.t1 - sp.Span.t0)
              else (n, c))
            (0, 0) spans
        in
        let folds, fold_cy =
          Array.fold_left
            (fun (n, c) (f : Span.fold) ->
              if f.Span.mech = mech then (n + f.Span.count, c + f.Span.cycles)
              else (n, c))
            (0, 0) kept.Span.folds
        in
        let what = Printf.sprintf "%s %s" s.B.Common.name name in
        check int (what ^ " roots kept + folded") count (roots + folds);
        check int (what ^ " cycles kept + folded") sum (root_cy + fold_cy)
      done)
    B.Registry.specs

(* --- Hop accounting: the chain tiles the episode -------------------------- *)

let test_hop_tiling () =
  let _, spans, _ =
    spanned ~faults:(Config.Faults.mixed ~seed:1 ()) (spec "EM3D")
  in
  let checked = ref 0 in
  Array.iter
    (fun (root : Span.span) ->
      if root.Span.parent = -1 && root.Span.kind = Span.Deref && root.Span.b = 2
      then begin
        (* a migrated dereference: its direct hop children are contiguous
           and tile [first hop start, episode end] exactly — the per-hop
           cycles the explain view prints sum to the episode latency *)
        let hops =
          Array.to_list spans
          |> List.filter (fun (s : Span.span) ->
                 s.Span.parent = root.Span.id && Span.is_hop s.Span.kind)
          |> List.sort (fun (a : Span.span) b ->
                 compare (a.Span.t0, a.Span.id) (b.Span.t0, b.Span.id))
        in
        check bool "migrate episode has hops" true (hops <> []);
        let rec contiguous t = function
          | [] -> t
          | (h : Span.span) :: rest ->
              check int "hops contiguous" t h.Span.t0;
              contiguous h.Span.t1 rest
        in
        let t_end = contiguous (List.hd hops).Span.t0 hops in
        check int "last hop ends at the episode end" root.Span.t1 t_end;
        let hop_sum =
          List.fold_left (fun a (h : Span.span) -> a + h.Span.t1 - h.Span.t0) 0 hops
        in
        check bool "hop cycles within the episode latency" true
          (hop_sum <= root.Span.t1 - root.Span.t0);
        incr checked
      end)
    spans;
  check bool "saw migrated episodes" true (!checked > 0)

(* --- Flight recorder ------------------------------------------------------- *)

let test_flight_dump_on_deadlock () =
  let path = Filename.temp_file "olden_flight" ".dump" in
  Span.flight_set_path path;
  Span.flight_enable ();
  let site = Site.migrate "t.f" in
  let msg =
    Fun.protect
      ~finally:(fun () -> Span.flight_disable ())
      (fun () ->
        match
          let engine = Engine.create (Config.make ~nprocs:4 ()) in
          Engine.exec engine (fun () ->
              let r = ref None in
              let f =
                Ops.future (fun () ->
                    let a = Ops.alloc ~proc:1 2 in
                    Ops.store_int site a 0 1;
                    match !r with
                    | Some g -> Ops.touch g
                    | None -> Value.Int 0)
              in
              let g = Ops.future (fun () -> Ops.touch f) in
              r := Some g;
              ignore (Ops.touch f))
        with
        | exception Olden_runtime.Engine.Deadlock msg -> msg
        | () -> Alcotest.fail "expected a deadlock")
  in
  (* the enriched report: last span per parked processor + dump path *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check bool "report names the last span per parked proc" true
    (contains msg "last span per parked proc");
  check bool "report names the dump file" true
    (contains msg ("flight recorder: " ^ path));
  let dump = read_file path in
  Sys.remove path;
  check bool "dump states the reason" true (contains dump "reason: deadlock");
  check bool "dump carries machine state" true (contains dump "machine state:");
  check bool "dump replays the last span events" true
    (contains dump "last events (oldest first):");
  check bool "dump shows dereference spans" true (contains dump "deref")

(* --- Off means off ---------------------------------------------------------- *)

let test_off_by_default () =
  check bool "no span sink installed" false (Span.is_on ());
  (* the hooks are no-ops rather than errors when nothing is installed *)
  Span.child ~kind:Span.Drop ~proc:0 ~t0:0 ~t1:0 ~a:0 ~b:0;
  Span.clear (Span.switch ());
  check int "no ambient trace" (-1) (Span.trace_proc (Span.switch ()))

let test_span_neutral () =
  (* collecting spans must not perturb the simulation: identical result,
     cycles, and statistics with the collector on and off *)
  let s = spec "MST" in
  Site.reset ();
  let plain = s.B.Common.run (Config.make ~nprocs:8 ()) ~scale:(test_scale s) in
  let o, _, _ = spanned s in
  check string "checksum unchanged" plain.B.Common.checksum o.B.Common.checksum;
  check int "total cycles unchanged" plain.B.Common.total_cycles
    o.B.Common.total_cycles;
  check string "stats unchanged"
    (Json.to_string (Stats.to_json plain.B.Common.total_stats))
    (Json.to_string (Stats.to_json o.B.Common.total_stats))

(* --- Switches captured at engine creation ----------------------------------- *)

(* [Common.execute] creates the engine first and installs the trace
   collector, the span collector and the monitor afterwards, so the
   engine's captured switches must see sinks that arrived later: the
   streams equal the goldens (recorded with [collect] wrapped around the
   whole run), and the monitor saw exactly one latency sample per
   dereference root, kept or folded. *)
let test_sinks_installed_after_create () =
  Site.reset ();
  let h = B.Common.hooks () in
  h.record_trace <- true;
  h.record_spans <- true;
  h.monitor_interval <- Some 10_000;
  let o =
    Fun.protect
      ~finally:(fun () ->
        h.record_trace <- false;
        h.record_spans <- false;
        h.monitor_interval <- None)
      (fun () ->
        B.Treeadd.spec.B.Common.run (Config.make ~nprocs:2 ()) ~scale:1_000_000)
  in
  check bool "verified" true o.B.Common.ok;
  let events = Option.get h.last_trace and spans = Option.get h.last_spans in
  let kept = Option.get h.last_retention in
  let m = Option.get h.last_monitor in
  h.last_trace <- None;
  h.last_spans <- None;
  h.last_retention <- None;
  h.last_monitor <- None;
  check string "trace stream matches the golden"
    (read_file "golden/treeadd_p2_trace.jsonl")
    (Jsonl.to_string events);
  check string "span stream matches the golden"
    (read_file "golden/treeadd_p2_spans.jsonl")
    (Span.jsonl ~folds:kept.Span.folds spans);
  let deref_roots =
    Array.fold_left
      (fun n (s : Span.span) ->
        if s.Span.parent = -1 && s.Span.kind = Span.Deref then n + 1 else n)
      (Span.folded kept.Span.folds)
      spans
  in
  let recorded =
    List.fold_left
      (fun n (_, (s : Monitor.summary)) -> n + s.Monitor.count)
      0 (Monitor.deref_summaries m)
  in
  check bool "the run dereferenced" true (deref_roots > 0);
  check int "one monitor sample per dereference root" deref_roots recorded

let test_exec_on_other_domain () =
  let e = Engine.create (Config.make ~nprocs:2 ()) in
  let outcome =
    Domain.join
      (Domain.spawn (fun () ->
           match Engine.exec e (fun () -> Ops.work 1) with
           | () -> None
           | exception Invalid_argument msg -> Some msg))
  in
  match outcome with
  | None -> Alcotest.fail "exec on a foreign domain was accepted"
  | Some msg ->
      check bool "one-line message" false (String.contains msg '\n');
      check bool "names Engine.exec" true
        (String.length msg >= 11 && String.sub msg 0 11 = "Engine.exec")

(* --- Chrome export ---------------------------------------------------------- *)

let test_chrome_export () =
  let spans, _ = run_treeadd () in
  let j = Json.of_string (Span.chrome_to_string ~nprocs:2 spans) in
  let events = Json.to_list (Option.get (Json.member "traceEvents" j)) in
  check bool "has events" true (events <> []);
  (* cross-processor episodes produce flow arrows in start/finish pairs *)
  let phase e =
    Option.get (Option.bind (Json.member "ph" e) Json.string_value)
  in
  let starts = List.length (List.filter (fun e -> phase e = "s") events) in
  let finishes = List.length (List.filter (fun e -> phase e = "f") events) in
  check bool "flow arrows present" true (starts > 0);
  check int "flow starts pair with finishes" starts finishes

(* --- The collector -------------------------------------------------------- *)

let test_second_collector_refused () =
  let refused =
    Invalid_argument "Span.install: a collector is already installed"
  in
  let c = Span.Collector.create () in
  Span.install c;
  Fun.protect ~finally:Span.uninstall (fun () ->
      Alcotest.check_raises "a second install" refused (fun () ->
          Span.install (Span.Collector.create ())));
  (* the case that used to lose the outer stream: [collect] around a
     driver that installs its own collector *)
  let h = B.Common.hooks () in
  h.record_spans <- true;
  Alcotest.check_raises "collect around a recording driver" refused
    (fun () ->
      Fun.protect
        ~finally:(fun () -> h.record_spans <- false)
        (fun () ->
          ignore
            (Span.collect (fun () ->
                 B.Treeadd.spec.B.Common.run (Config.make ~nprocs:2 ())
                   ~scale:1_000_000))));
  check bool "nothing left installed" false (Span.is_on ())

let test_collector_chunks () =
  let n = (3 * Span.Collector.chunk_size) + 17 in
  Span.reset ();
  let (), spans, _ =
    Span.collect (fun () ->
        for i = 0 to n - 1 do
          Span.child ~kind:Span.Service ~proc:0 ~t0:i ~t1:(i + 1) ~a:i ~b:0
        done)
  in
  check int "every span kept" n (Array.length spans);
  Array.iteri
    (fun i (sp : Span.span) ->
      if sp.Span.id <> i || sp.Span.a <> i then
        Alcotest.failf "slot %d holds span id %d (a = %d)" i sp.Span.id
          sp.Span.a)
    spans

(* Kept out of line so no register or stack slot of the test still holds
   the collector when the GC runs. *)
let[@inline never] install_and_uninstall w =
  let c = Span.Collector.create () in
  Weak.set w 0 (Some c);
  Span.install c;
  Span.child ~kind:Span.Service ~proc:0 ~t0:0 ~t1:1 ~a:0 ~b:0;
  Span.uninstall ()

let test_collector_released () =
  let w = Weak.create 1 in
  install_and_uninstall w;
  Gc.full_major ();
  check bool "collector collected after uninstall" false (Weak.check w 0)

let suite =
  [
    Alcotest.test_case "golden treeadd span stream" `Quick test_golden;
    Alcotest.test_case "treeadd span tree well-formed" `Quick
      test_treeadd_stream;
    Alcotest.test_case "return stubs open propagated roots" `Quick
      test_return_stub_roots;
    Alcotest.test_case "run-twice byte-identical export (all ten)" `Slow
      test_run_twice_byte_identical;
    Alcotest.test_case "exemplars name real episodes" `Quick
      test_exemplars_real;
    QCheck_alcotest.to_alcotest prop_tail_matches_scan;
    Alcotest.test_case "kept plus folded roots match the monitor (all ten)"
      `Slow test_fold_accounting;
    Alcotest.test_case "migration hops tile the episode" `Quick
      test_hop_tiling;
    Alcotest.test_case "flight recorder dumps on deadlock" `Quick
      test_flight_dump_on_deadlock;
    Alcotest.test_case "off by default" `Quick test_off_by_default;
    Alcotest.test_case "span collection never perturbs the run" `Quick
      test_span_neutral;
    Alcotest.test_case "chrome export flow arrows" `Quick test_chrome_export;
    Alcotest.test_case "sinks installed after Engine.create see everything"
      `Quick test_sinks_installed_after_create;
    Alcotest.test_case "exec on another domain is rejected" `Quick
      test_exec_on_other_domain;
    Alcotest.test_case "a second collector is refused" `Quick
      test_second_collector_refused;
    Alcotest.test_case "collector keeps order across chunks" `Quick
      test_collector_chunks;
    Alcotest.test_case "collector released after uninstall" `Quick
      test_collector_released;
  ]
