(* The runtime engine: migration, return stubs, futures, touch, future
   stealing, phases, policies, determinism. *)

open Olden

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let run ?(nprocs = 4) ?(policy = Config.Heuristic) ?(coherence = Config.Local)
    program =
  let cfg = Config.make ~nprocs ~policy ~coherence () in
  let engine = Engine.create cfg in
  Engine.exec engine program;
  engine

let test_work_charges_clock () =
  let engine = run (fun () -> Ops.work 123) in
  check int "makespan" 123 (Engine.report engine).Engine.makespan

let test_self_nprocs () =
  let seen = ref (-1, -1) in
  ignore (run ~nprocs:7 (fun () -> seen := (Ops.self (), Ops.nprocs ())));
  check bool "starts on processor 0 of 7" true (!seen = (0, 7))

let test_local_load_store () =
  let site = Site.migrate "t.f" in
  let engine =
    run (fun () ->
        let a = Ops.alloc ~proc:0 2 in
        Ops.store_int site a 0 5;
        assert (Ops.load_int site a 0 = 5))
  in
  check int "no migrations" 0 (Engine.report engine).Engine.stats.Stats.migrations

let test_migration_on_remote_deref () =
  let site = Site.migrate "t.f" in
  let where = ref (-1) in
  let engine =
    run (fun () ->
        let a = Ops.alloc ~proc:2 2 in
        Ops.store_int site a 0 5 (* migrates to 2 *);
        where := Ops.self ())
  in
  check int "thread moved to the owner" 2 !where;
  check int "one migration" 1 (Engine.report engine).Engine.stats.Stats.migrations

let test_return_stub () =
  let site = Site.migrate "t.f" in
  let where = ref (-1) in
  let engine =
    run (fun () ->
        let a = Ops.alloc ~proc:3 2 in
        let v = Ops.call (fun () -> Ops.store_int site a 0 1; 42) in
        assert (v = 42);
        where := Ops.self ())
  in
  check int "returned to the caller's processor" 0 !where;
  check int "one return" 1 (Engine.report engine).Engine.stats.Stats.returns

let test_call_without_migration_is_free () =
  let engine =
    run (fun () -> assert (Ops.call (fun () -> Ops.work 1; 9) = 9))
  in
  check int "no return message" 0 (Engine.report engine).Engine.stats.Stats.returns

let test_null_dereference_raises () =
  let site = Site.migrate "t.f" in
  Alcotest.check_raises "null deref"
    (Olden_runtime.Engine.Null_dereference "t.f") (fun () ->
      ignore (run (fun () -> ignore (Ops.load site Gptr.null 0))))

let test_future_no_migration_runs_inline () =
  (* body never migrates: no new thread, continuation popped locally *)
  let order = ref [] in
  let engine =
    run (fun () ->
        let f =
          Ops.future (fun () ->
              order := `Body :: !order;
              Value.Int 1)
        in
        order := `Parent :: !order;
        ignore (Ops.touch f))
  in
  check bool "body ran before the continuation" true
    (List.rev !order = [ `Body; `Parent ]);
  let stats = (Engine.report engine).Engine.stats in
  check int "a steal pops the saved continuation" 1 stats.Stats.steals;
  check int "no migration" 0 stats.Stats.migrations

let test_future_with_migration_steals () =
  (* body migrates away: the continuation is stolen and runs in parallel *)
  let site = Site.migrate "t.f" in
  let parent_proc = ref (-1) in
  let engine =
    run (fun () ->
        let a = Ops.alloc ~proc:1 2 in
        Ops.store_int site a 0 0 (* move the main thread to 1 first *);
        let b = Ops.alloc ~proc:2 2 in
        let f =
          Ops.future (fun () ->
              Ops.store_int site b 0 7 (* migrates to 2 *);
              Ops.work 10_000;
              Value.Int (Ops.load_int site b 0))
        in
        parent_proc := Ops.self () (* stolen continuation stays on 1 *);
        Ops.work 500;
        assert (Value.to_int (Ops.touch f) = 7))
  in
  check int "continuation stolen on the spawning processor" 1 !parent_proc;
  let stats = (Engine.report engine).Engine.stats in
  check bool "migrated" true (stats.Stats.migrations >= 1);
  check int "one future, one touch" 2 (stats.Stats.futures + stats.Stats.touches)

let test_touch_blocks_until_resolved () =
  let site = Site.migrate "t.f" in
  let v = ref 0 in
  ignore
    (run (fun () ->
         let b = Ops.alloc ~proc:3 2 in
         let f =
           Ops.future (fun () ->
               Ops.store_int site b 0 1;
               Ops.work 50_000;
               Value.Int 77)
         in
         v := Value.to_int (Ops.touch f)));
  check int "touch waited for the slow body" 77 !v

let test_parallelism_overlaps () =
  (* two long bodies on two remote processors: makespan ~ one body *)
  let site = Site.migrate "t.f" in
  let engine =
    run ~nprocs:4 (fun () ->
        let spawn proc =
          let a = Ops.alloc ~proc 2 in
          Ops.future (fun () ->
              Ops.store_int site a 0 1;
              Ops.work 100_000;
              Value.Int 0)
        in
        let f1 = spawn 1 in
        let f2 = spawn 2 in
        ignore (Ops.touch f1);
        ignore (Ops.touch f2))
  in
  let span = (Engine.report engine).Engine.makespan in
  check bool "both bodies overlapped" true (span < 150_000)

let test_deadlock_detection () =
  (* two futures that touch each other can never resolve; the engine must
     detect the drained-but-blocked state rather than hang *)
  let site = Site.migrate "t.f" in
  check bool "deadlock detected" true
    (match
       run (fun () ->
           let r = ref None in
           let f =
             Ops.future (fun () ->
                 let a = Ops.alloc ~proc:1 2 in
                 (* migrate away so the rest of this body runs after the
                    spawner has filled [r] *)
                 Ops.store_int site a 0 1;
                 match !r with
                 | Some g -> Ops.touch g
                 | None -> Value.Int 0)
           in
           let g = Ops.future (fun () -> Ops.touch f) in
           r := Some g;
           ignore (Ops.touch f))
     with
    | exception Olden_runtime.Engine.Deadlock _ -> true
    | _engine -> false)

let test_phase_barrier_and_interval () =
  let cfg = Config.make ~nprocs:2 () in
  let engine = Engine.create cfg in
  Engine.exec engine (fun () ->
      Ops.work 100;
      Ops.phase "kernel";
      Ops.work 50);
  let cycles, _stats = Engine.interval engine ~start:"kernel" ~stop:None in
  check int "kernel interval" 50 cycles;
  check int "total" 150 (Engine.report engine).Engine.makespan

let test_policy_override_migrate_only () =
  let site = Site.cache "t.f" in
  let engine =
    run ~policy:Config.Migrate_only (fun () ->
        let a = Ops.alloc ~proc:1 2 in
        Ops.store_int site a 0 3;
        ignore (Ops.load_int site a 0))
  in
  let stats = (Engine.report engine).Engine.stats in
  check bool "cache site forced to migrate" true (stats.Stats.migrations >= 1);
  check int "no cacheable accesses" 0 stats.Stats.cacheable_reads

let test_policy_override_cache_only () =
  let site = Site.migrate "t.f" in
  let engine =
    run ~policy:Config.Cache_only (fun () ->
        let a = Ops.alloc ~proc:1 2 in
        Ops.store_int site a 0 3;
        ignore (Ops.load_int site a 0))
  in
  let stats = (Engine.report engine).Engine.stats in
  check int "no migrations" 0 stats.Stats.migrations;
  check bool "cacheable accesses counted" true (stats.Stats.cacheable_reads >= 1)

let test_sequential_mode () =
  let cfg = Config.sequential_of (Config.make ~nprocs:32 ()) in
  let engine = Engine.create cfg in
  let site = Site.migrate "t.f" in
  Engine.exec engine (fun () ->
      let a = Ops.alloc ~proc:0 2 in
      Ops.store_int site a 0 1;
      let f = Ops.future (fun () -> Value.Int (Ops.load_int site a 0)) in
      assert (Value.to_int (Ops.touch f) = 1);
      Ops.work 10);
  let r = Engine.report engine in
  check int "one processor" 0 r.Engine.stats.Stats.migrations;
  (* no pointer-test or future overhead in the baseline *)
  check int "baseline cycles" (10 + 10 + 1 + 1) r.Engine.makespan

let test_determinism () =
  let program () =
    let site = Site.migrate "t.f" in
    let rec spawn depth proc =
      if depth = 0 then 1
      else begin
        let a = Ops.alloc ~proc 2 in
        Ops.store_int site a 0 depth;
        let f =
          Ops.future (fun () -> Value.Int (spawn (depth - 1) ((proc + 1) mod 4)))
        in
        let r = spawn (depth - 1) ((proc + 2) mod 4) in
        Value.to_int (Ops.touch f) + r
      end
    in
    ignore (Ops.call (fun () -> spawn 6 0))
  in
  let r1 = (Engine.report (run program)).Engine.makespan in
  let r2 = (Engine.report (run program)).Engine.makespan in
  check int "identical makespans" r1 r2

let test_remote_alloc_cost () =
  let engine =
    run (fun () ->
        ignore (Ops.alloc ~proc:0 4);
        ignore (Ops.alloc ~proc:2 4))
  in
  check int "remote alloc counted" 1
    (Engine.report engine).Engine.stats.Stats.remote_allocs

let prop_tree_sum_any_shape =
  (* a random tree distributed any way always sums correctly *)
  QCheck.Test.make ~name:"future tree sum is correct on any layout" ~count:60
    QCheck.(pair (int_range 1 6) (int_range 1 8))
    (fun (depth, nprocs) ->
      let site = Site.migrate "q.f" in
      let total = ref 0 in
      let cfg = Config.make ~nprocs () in
      let engine = Engine.create cfg in
      Engine.exec engine (fun () ->
          let prng = Prng.create ((depth * 131) + nprocs) in
          let rec build d =
            if d = 0 then (Gptr.null, 0)
            else begin
              let node = Ops.alloc ~proc:(Prng.int prng nprocs) 3 in
              let l, sl = build (d - 1) in
              let r, sr = build (d - 1) in
              let v = Prng.int prng 100 in
              Ops.store_ptr site node 0 l;
              Ops.store_ptr site node 1 r;
              Ops.store_int site node 2 v;
              (node, sl + sr + v)
            end
          in
          let root, expected = Ops.call (fun () -> build depth) in
          let rec sum t =
            if Gptr.is_null t then 0
            else begin
              let l = Ops.load_ptr site t 0 in
              let r = Ops.load_ptr site t 1 in
              let f = Ops.future (fun () -> Value.Int (sum l)) in
              let sr = Ops.call (fun () -> sum r) in
              Value.to_int (Ops.touch f) + sr + Ops.load_int site t 2
            end
          in
          total := Ops.call (fun () -> sum root) - expected);
      !total = 0)

(* Processor sets are bit masks in one int: a machine the masks cannot
   hold is refused where it is configured, not part-way through a run. *)
let test_nprocs_range () =
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "nprocs %d" n)
        (Invalid_argument
           (Printf.sprintf "Olden_config.make: nprocs %d is outside [1, %d]" n
              Config.max_nprocs))
        (fun () -> ignore (Config.make ~nprocs:n ())))
    [ 0; -1; Config.max_nprocs + 1 ];
  let r = Engine.run (Config.make ~nprocs:Config.max_nprocs ()) (fun () -> ()) in
  Alcotest.(check int) "the largest machine runs" 0 r.Engine.makespan

let suite =
  [
    Alcotest.test_case "work charges the clock" `Quick test_work_charges_clock;
    Alcotest.test_case "self/nprocs" `Quick test_self_nprocs;
    Alcotest.test_case "local load/store" `Quick test_local_load_store;
    Alcotest.test_case "migration on remote deref" `Quick
      test_migration_on_remote_deref;
    Alcotest.test_case "return stub" `Quick test_return_stub;
    Alcotest.test_case "call without migration" `Quick
      test_call_without_migration_is_free;
    Alcotest.test_case "null dereference" `Quick test_null_dereference_raises;
    Alcotest.test_case "future runs inline" `Quick
      test_future_no_migration_runs_inline;
    Alcotest.test_case "future migration steals" `Quick
      test_future_with_migration_steals;
    Alcotest.test_case "touch blocks" `Quick test_touch_blocks_until_resolved;
    Alcotest.test_case "parallelism overlaps" `Quick test_parallelism_overlaps;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "phase barrier and interval" `Quick
      test_phase_barrier_and_interval;
    Alcotest.test_case "migrate-only override" `Quick
      test_policy_override_migrate_only;
    Alcotest.test_case "cache-only override" `Quick
      test_policy_override_cache_only;
    Alcotest.test_case "sequential mode" `Quick test_sequential_mode;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "remote alloc" `Quick test_remote_alloc_cost;
    Alcotest.test_case "nprocs outside the masks is refused" `Quick
      test_nprocs_range;
    QCheck_alcotest.to_alcotest prop_tree_sum_any_shape;
  ]
