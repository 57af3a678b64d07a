(* The fault-injection layer: zero-probability schedules are
   bit-equivalent to no faults at all, faulty runs are deterministic
   (same seed + schedule => byte-identical metrics snapshots) for every
   Table 2 benchmark, chaos runs pass the coherence invariant checker
   and reproduce the fault-free checksum and heap, migrations to a
   flaky home degrade to caching instead of wedging, and the deadlock
   report names the parked sites. *)

open Olden
module B = Olden_benchmarks
module Check = Olden_check.Invariants

let check = Alcotest.check
let string = Alcotest.string
let bool = Alcotest.bool

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

let snapshot (s : B.Common.spec) cfg ~scale =
  Site.reset ();
  let o, events = Obs_run.traced (fun () -> s.B.Common.run cfg ~scale) in
  check bool (s.B.Common.name ^ " verified") true o.B.Common.ok;
  (o, Json.to_string (B.Common.metrics_snapshot ~events s ~cfg ~scale o))

(* --- Zero-probability faults are exactly no faults ---------------------- *)

let test_zero_prob_faults_equivalent () =
  (* with every probability at zero the faulty code path must take the
     same branches, charge the same cycles, and count the same messages
     as the reliable one: snapshots are byte-identical *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let _, off = snapshot s (Config.make ~nprocs:8 ()) ~scale in
      let _, zero =
        snapshot s
          (Config.make ~nprocs:8
             ~faults:{ Config.no_faults with Config.fault_seed = 3 }
             ())
          ~scale
      in
      check string
        (s.B.Common.name ^ ": zero-probability faults = faults off")
        off zero)
    [ B.Treeadd.spec; B.Em3d.spec; B.Health.spec ]

(* --- Determinism under faults ------------------------------------------- *)

let test_fault_determinism () =
  (* same workload seed + same fault schedule => byte-identical metrics
     snapshots across two runs, for every Table 2 benchmark *)
  List.iter
    (fun (s : B.Common.spec) ->
      let scale = test_scale s in
      let faults = Config.Faults.mixed ~seed:7 () in
      let cfg () = Config.make ~nprocs:8 ~faults () in
      let _, first = snapshot s (cfg ()) ~scale in
      let _, second = snapshot s (cfg ()) ~scale in
      check string (s.B.Common.name ^ ": faulty run-twice") first second)
    B.Registry.specs

(* --- Chaos: invariants, checksum, heap ----------------------------------- *)

let run_checked (s : B.Common.spec) cfg ~scale ~inspect =
  (B.Common.hooks ()).inspect_engine <- Some inspect;
  Fun.protect
    ~finally:(fun () -> (B.Common.hooks ()).inspect_engine <- None)
    (fun () ->
      Site.reset ();
      s.B.Common.run cfg ~scale)

let test_chaos_clean (s : B.Common.spec) () =
  let scale = test_scale s in
  let ref_digest = ref "" in
  let ref_o =
    run_checked s (Config.make ~nprocs:8 ()) ~scale ~inspect:(fun e ->
        ref_digest := Check.heap_digest e)
  in
  check bool "fault-free verified" true ref_o.B.Common.ok;
  List.iter
    (fun sched ->
      List.iter
        (fun seed ->
          let faults = Option.get (Config.Faults.by_name sched ~seed) in
          let violations = ref [] in
          let o =
            run_checked s
              (Config.make ~nprocs:8 ~faults ())
              ~scale
              ~inspect:(fun e ->
                violations := Check.check ~expected_heap:!ref_digest e)
          in
          let tag fmt =
            Printf.ksprintf
              (fun m ->
                Printf.sprintf "%s %s seed=%d: %s" s.B.Common.name sched seed
                  m)
              fmt
          in
          check bool (tag "verified") true o.B.Common.ok;
          check string (tag "checksum") ref_o.B.Common.checksum
            o.B.Common.checksum;
          check string (tag "invariants")
            ""
            (String.concat "; "
               (List.map
                  (fun v -> Format.asprintf "%a" Check.pp_violation v)
                  !violations)))
        [ 1; 2 ])
    [ "drop"; "delay"; "dup"; "mix" ]

(* --- Graceful degradation ------------------------------------------------ *)

let test_flaky_home_falls_back () =
  (* a home that drops 90% of thread-state transfers forces migrations to
     give up; the dereference must fall back to caching and the run must
     still produce the right answer *)
  let s = B.Treeadd.spec in
  let scale = test_scale s in
  let reference = s.B.Common.run (Config.make ~nprocs:8 ()) ~scale in
  Site.reset ();
  let faults = Config.Faults.flaky_home ~seed:1 () in
  let o = s.B.Common.run (Config.make ~nprocs:8 ~faults ()) ~scale in
  check bool "verified under flaky homes" true o.B.Common.ok;
  check string "checksum matches reliable run" reference.B.Common.checksum
    o.B.Common.checksum;
  let st = o.B.Common.total_stats in
  check bool "some migrations gave up and degraded to caching" true
    (st.Stats.migration_fallbacks > 0);
  check bool "every fallback burned the configured attempts" true
    (st.Stats.retries >= st.Stats.migration_fallbacks)

(* --- Deadlock diagnostics ------------------------------------------------ *)

let test_deadlock_message () =
  (* the deadlock report must say where threads are parked (site labels)
     and how much work each processor still holds *)
  let cfg = Config.make ~nprocs:4 () in
  let engine = Engine.create cfg in
  let site = Site.migrate "t.f" in
  let wait = Site.make "chaos.wait" in
  let msg =
    match
      Engine.exec engine (fun () ->
          let r = ref None in
          let f =
            Ops.future (fun () ->
                let a = Ops.alloc ~proc:1 2 in
                Ops.store_int site a 0 1;
                match !r with
                | Some g -> Ops.touch ~site:wait g
                | None -> Value.Int 0)
          in
          let g = Ops.future (fun () -> Ops.touch f) in
          r := Some g;
          ignore (Ops.touch f))
    with
    | () -> Alcotest.fail "expected a deadlock"
    | exception Engine.Deadlock m -> m
  in
  let contains sub =
    let n = String.length sub and len = String.length msg in
    let rec at i =
      i + n <= len && (String.sub msg i n = sub || at (i + 1))
    in
    at 0
  in
  check bool
    (Printf.sprintf "names the parked site (got %S)" msg)
    true (contains "chaos.wait");
  check bool "labels anonymous futures" true (contains "fut#");
  check bool "reports pending continuations" true
    (contains "pending continuations:")

let suite =
  [
    Alcotest.test_case "zero-probability faults = faults off" `Quick
      test_zero_prob_faults_equivalent;
    Alcotest.test_case "same seed + schedule => identical snapshots" `Quick
      test_fault_determinism;
    Alcotest.test_case "chaos: treeadd clean" `Quick
      (test_chaos_clean B.Treeadd.spec);
    Alcotest.test_case "chaos: em3d clean" `Quick
      (test_chaos_clean B.Em3d.spec);
    Alcotest.test_case "flaky home degrades to caching" `Quick
      test_flaky_home_falls_back;
    Alcotest.test_case "deadlock report names parked sites" `Quick
      test_deadlock_message;
  ]
