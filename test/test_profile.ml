(* The profiler layer: per-site cost attribution, the dependency DAG and
   critical-path analysis (hand-built streams with known longest paths,
   ties, and the empty stream), per-processor accounting, snapshot
   diffing, and the trace summary digest. *)

open Olden
module B = Olden_benchmarks

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

let costs = (Config.make ~nprocs:2 ()).Config.costs

(* Event constructors for hand-built streams. *)
let ev ?(tid = 0) ?(site = -1) ~t ~p kind =
  { Trace.time = t; proc = p; tid; site; kind }

(* --- Attribution on hand-built streams ------------------------------------ *)

(* One migration (2800 cycles measured), one return stub (1200) charged
   back to the migration's site, one cache miss (model: 400) and one
   revalidation (model: 360) at another site. *)
let attribution_stream =
  [|
    ev ~t:100 ~p:0 ~tid:1 ~site:5 (Trace.Migrate_send { target = 1 });
    ev ~t:2900 ~p:1 ~tid:1 (Trace.Migrate_arrive { source = 0 });
    ev ~t:3000 ~p:1 ~tid:2 ~site:7
      (Trace.Cache_miss { home = 0; page = 3; line = 1 });
    ev ~t:3400 ~p:1 ~tid:2 ~site:7
      (Trace.Revalidate { home = 0; page = 3; dropped = 0 });
    ev ~t:5000 ~p:1 ~tid:1 (Trace.Return_send { target = 0 });
    ev ~t:6200 ~p:0 ~tid:1 (Trace.Return_arrive { source = 1 });
  |]

let test_attribution_charges () =
  let entries = Attribution.of_events ~costs attribution_stream in
  check int "two sites" 2 (List.length entries);
  let find site = List.find (fun e -> e.Attribution.site = site) entries in
  let migr = find 5 in
  check int "one migration" 1 migr.Attribution.migrations;
  check int "measured migration latency" 2800 migr.Attribution.migration_cycles;
  check int "return charged to the migration's site" 1
    migr.Attribution.returns;
  check int "measured return latency" 1200 migr.Attribution.return_cycles;
  let cache = find 7 in
  check int "one miss" 1 cache.Attribution.misses;
  check int "model miss round trip" (Config.miss_round_trip costs)
    cache.Attribution.miss_cycles;
  check int "one revalidation" 1 cache.Attribution.revalidations;
  check int "model revalidation stall"
    ((2 * costs.Config.net_latency) + costs.Config.timestamp_service)
    cache.Attribution.revalidate_cycles;
  check int "grand total covers every component"
    (2800 + 1200 + 400 + 360)
    (Attribution.grand_total entries);
  (* ranked by total, descending *)
  check int "largest first" 5 (List.nth entries 0).Attribution.site

let test_attribution_names () =
  let site_name = function 5 -> Some "t->left@treeadd" | _ -> None in
  let entries = Attribution.of_events ~site_name ~costs attribution_stream in
  let name site =
    (List.find (fun e -> e.Attribution.site = site) entries).Attribution.name
  in
  check string "named site" "t->left@treeadd" (name 5);
  check string "fallback name" "site#7" (name 7)

let test_attribution_unattributed () =
  (* a return stub from a thread that never migrated lands in the
     unattributed bucket, and an arrival with no matching send is
     ignored rather than inventing cost *)
  let events =
    [|
      ev ~t:10 ~p:0 ~tid:3 (Trace.Return_send { target = 1 });
      ev ~t:1210 ~p:1 ~tid:3 (Trace.Return_arrive { source = 0 });
      ev ~t:2000 ~p:0 ~tid:9 (Trace.Migrate_arrive { source = 1 });
    |]
  in
  let entries = Attribution.of_events ~costs events in
  check int "one bucket" 1 (List.length entries);
  let e = List.hd entries in
  check int "unattributed id" (-1) e.Attribution.site;
  check string "unattributed label" "<unattributed>" e.Attribution.name;
  check int "only the paired return counted" 1200 (Attribution.total e);
  check int "orphan arrival charged nothing" 0 e.Attribution.migrations

let test_attribution_empty () =
  check int "empty stream, no entries" 0
    (List.length (Attribution.of_events ~costs [||]))

let test_folded () =
  let entries = Attribution.of_events ~costs attribution_stream in
  let folded = Attribution.folded ~prefix:"test" entries in
  let lines = String.split_on_char '\n' (String.trim folded) in
  check int "one line per nonzero component" 4 (List.length lines);
  check bool "migration line present" true
    (List.mem "test;site#5;migration 2800" lines);
  check bool "return line present" true
    (List.mem "test;site#5;return 1200" lines);
  check bool "miss line present" true
    (List.mem "test;site#7;cache-miss 400" lines);
  check bool "revalidate line present" true
    (List.mem "test;site#7;revalidate 360" lines)

(* --- Dependency graph and critical path ----------------------------------- *)

let test_critical_path_migration_chain () =
  (* migrate out, compute, return: every hop class measurable by hand *)
  let events =
    [|
      ev ~t:0 ~p:0 ~tid:1 ~site:3 (Trace.Migrate_send { target = 1 });
      ev ~t:2800 ~p:1 ~tid:1 (Trace.Migrate_arrive { source = 0 });
      ev ~t:3000 ~p:1 ~tid:1 (Trace.Return_send { target = 0 });
      ev ~t:4200 ~p:0 ~tid:1 (Trace.Return_arrive { source = 1 });
    |]
  in
  let g = Depgraph.build events in
  check (Alcotest.option int) "last event ends the path" (Some 3)
    (Depgraph.last g);
  check (Alcotest.list int) "chain is the whole hop sequence" [ 0; 1; 2; 3 ]
    (Depgraph.chain g);
  let t = Critical_path.analyze events in
  check int "span is the last timestamp" 4200 t.Critical_path.span;
  check int "four hops" 4 t.Critical_path.length;
  check int "migration time on the path" 2800
    t.Critical_path.migration_cycles;
  check int "return time on the path" 1200 t.Critical_path.return_cycles;
  check int "compute is the remainder" 200 t.Critical_path.compute_cycles;
  check int "what-if bound removes the in-flight time" 200
    t.Critical_path.what_if_free_migration

let test_critical_path_future_wait () =
  (* a parked touch is released by a resolve on another processor: the
     post-park hop must take the Resolve edge (t=1000), not the stale
     program/processor edges (t=100) *)
  let events =
    [|
      ev ~t:0 ~p:0 ~tid:1 (Trace.Future_spawn { fid = 7 });
      ev ~t:50 ~p:1 ~tid:2 Trace.Steal;
      ev ~t:100 ~p:0 ~tid:1 (Trace.Future_touch { fid = 7; parked = true });
      ev ~t:1000 ~p:1 ~tid:2 (Trace.Future_resolve { fid = 7; waiters = 1 });
      ev ~t:1100 ~p:0 ~tid:1 (Trace.Future_touch { fid = 7; parked = false });
    |]
  in
  let g = Depgraph.build events in
  (match g.Depgraph.realized.(4) with
  | Depgraph.Resolve 3 -> ()
  | _ -> Alcotest.fail "post-park event must realize the Resolve edge");
  check (Alcotest.list int) "path runs through the resolver" [ 1; 3; 4 ]
    (Depgraph.chain g);
  let t = Critical_path.analyze events in
  check int "wait cycles measured from the resolve" 100
    t.Critical_path.wait_cycles;
  check int "steal hop from t=0" 50 t.Critical_path.steal_cycles;
  check int "resolver's compute" 950 t.Critical_path.compute_cycles;
  check int "migration-free bound is the whole span" 1100
    t.Critical_path.what_if_free_migration

let test_critical_path_ties () =
  (* equal timestamps: the latest emission wins, both for the path's
     endpoint and for the realized predecessor *)
  let events =
    [|
      ev ~t:100 ~p:0 ~tid:1 Trace.Steal;
      ev ~t:100 ~p:1 ~tid:2 Trace.Steal;
      ev ~t:200 ~p:0 ~tid:2 (Trace.Future_spawn { fid = 0 });
    |]
  in
  let g = Depgraph.build events in
  (* event 2 could follow event 0 (processor order) or event 1 (program
     order); both finished at t=100, so the later emission (index 1) is
     the realized predecessor *)
  (match g.Depgraph.realized.(2) with
  | Depgraph.Program 1 -> ()
  | _ -> Alcotest.fail "tie must resolve toward the latest emission");
  check (Alcotest.list int) "chain through the tie" [ 1; 2 ]
    (Depgraph.chain g);
  (* a two-way tie for the last event: index 1 wins *)
  let tie = [| events.(0); events.(1) |] in
  check (Alcotest.option int) "endpoint tie resolves to the later index"
    (Some 1)
    (Depgraph.last (Depgraph.build tie))

let test_critical_path_empty () =
  check (Alcotest.option int) "no last event" None
    (Depgraph.last (Depgraph.build [||]));
  check (Alcotest.list int) "no chain" [] (Depgraph.chain (Depgraph.build [||]));
  let t = Critical_path.analyze [||] in
  check int "zero span" 0 t.Critical_path.span;
  check int "zero hops" 0 t.Critical_path.length;
  check int "zero what-if" 0 t.Critical_path.what_if_free_migration;
  (* the printers cope with the empty analysis too *)
  let s = Format.asprintf "%a" (Critical_path.pp ?site_name:None ~tail:4) t in
  check bool "summary renders" true (String.length s > 0)

let test_breakdown_identity () =
  let rows =
    Critical_path.breakdown ~makespan:1000
      ~busy:[| 600; 800 |]
      ~comm:[| 150; 0 |]
      ()
  in
  List.iter
    (fun r ->
      check int "row sums to the makespan" 1000
        Critical_path.(r.busy + r.comm + r.idle))
    rows;
  check int "idle is the remainder" 250 (List.nth rows 0).Critical_path.idle;
  let s =
    Format.asprintf "%a" (fun ppf -> Critical_path.pp_breakdown ppf ~makespan:1000) rows
  in
  check bool "table renders the identity" true
    (let sub = "2 x makespan 1000" in
     let rec find i =
       i + String.length sub <= String.length s
       && (String.sub s i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* --- Reconciliation against a real run ------------------------------------ *)

(* 8-processor treeadd: migration counts in the attribution match the
   stream, and the machine's busy/comm/idle accounting tiles
   nprocs x makespan exactly. *)
let test_treeadd_reconciles () =
  Site.reset ();
  let cfg = Config.make ~nprocs:8 () in
  let o, events =
    Obs_run.traced (fun () -> B.Treeadd.spec.B.Common.run cfg ~scale:4096)
  in
  check bool "verified" true o.B.Common.ok;
  let entries = Attribution.of_events ~costs:cfg.Config.costs events in
  let arrivals =
    Array.fold_left
      (fun n e ->
        match e.Trace.kind with Trace.Migrate_arrive _ -> n + 1 | _ -> n)
      0 events
  in
  check int "every completed migration attributed" arrivals
    (List.fold_left (fun n e -> n + e.Attribution.migrations) 0 entries);
  check bool "attributed cycles are positive" true
    (Attribution.grand_total entries > 0);
  (* machine accounting: busy + comm + idle = nprocs x makespan *)
  let busy = (B.Common.hooks ()).last_busy and comm = (B.Common.hooks ()).last_comm in
  let makespan = Array.fold_left max 0 (B.Common.hooks ()).last_clocks in
  let rows = Critical_path.breakdown ~makespan ~busy ~comm () in
  List.iter
    (fun r ->
      check bool "idle never negative" true (r.Critical_path.idle >= 0);
      check int "row tiles the makespan" makespan
        Critical_path.(r.busy + r.comm + r.idle))
    rows;
  (* the critical path is bounded by the traced span and mostly compute
     for this migration-only benchmark *)
  let t = Critical_path.analyze events in
  check bool "path has hops" true (t.Critical_path.length > 0);
  check bool "breakdown covers the span" true
    (t.Critical_path.compute_cycles + t.Critical_path.migration_cycles
     + t.Critical_path.return_cycles + t.Critical_path.wait_cycles
     + t.Critical_path.steal_cycles
    <= t.Critical_path.span)

(* em3d exercises the cache layer: every comm cycle the machine accounts
   is a request/reply stall the attribution prices identically, so the
   two totals agree exactly (handler contention is off by default). *)
let test_em3d_stalls_match_comm () =
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let o, events =
    Obs_run.traced (fun () -> B.Em3d.spec.B.Common.run cfg ~scale:1024)
  in
  check bool "verified" true o.B.Common.ok;
  let entries = Attribution.of_events ~costs:cfg.Config.costs events in
  let stalls =
    List.fold_left
      (fun n e ->
        n + e.Attribution.miss_cycles + e.Attribution.revalidate_cycles)
      0 entries
  in
  check bool "cache stalls attributed" true (stalls > 0);
  check int "attributed stalls equal machine comm" stalls
    (Array.fold_left ( + ) 0 (B.Common.hooks ()).last_comm)

(* --- Snapshot diffing ------------------------------------------------------ *)

let snapshot ?(verified = true) ?(measured = 1000) ?(migrations = 10) name =
  Printf.sprintf
    {|{"schema": "olden-metrics/v1", "benchmark": "%s", "verified": %b,
       "measured_cycles": %d, "total_cycles": %d,
       "stats": {"migrations": %d, "cache_misses": 0, "messages": 0}}|}
    name verified measured (measured + 500) migrations
  |> Json.of_string

let table names =
  Json.Obj
    [
      ("schema", Json.String "olden-metrics-table/v1");
      ("benchmarks", Json.List (List.map (fun n -> snapshot n) names));
    ]

let diff_exn ~tolerance ~base ~current =
  match Snapshot_diff.compare_json ~tolerance ~base ~current with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_diff_identical () =
  let base = snapshot "TreeAdd" in
  let r = diff_exn ~tolerance:0.05 ~base ~current:base in
  check int "no regressions" 0 (List.length (Snapshot_diff.regressions r));
  check bool "deltas reported" true (List.length r.Snapshot_diff.deltas >= 2)

let test_diff_regression () =
  let base = snapshot "TreeAdd" in
  let current = snapshot ~measured:1250 "TreeAdd" in
  let r = diff_exn ~tolerance:0.05 ~base ~current in
  let regs = Snapshot_diff.regressions r in
  check bool "cycle regression caught" true
    (List.exists
       (fun d -> d.Snapshot_diff.metric = "measured_cycles")
       regs);
  (* a generous tolerance swallows it *)
  let r = diff_exn ~tolerance:0.5 ~base ~current in
  check int "within tolerance" 0 (List.length (Snapshot_diff.regressions r))

let test_diff_context_not_gated () =
  (* mechanism counters are context: tripling migrations never gates *)
  let base = snapshot "TreeAdd" in
  let current = snapshot ~migrations:30 "TreeAdd" in
  let r = diff_exn ~tolerance:0.05 ~base ~current in
  check int "counters never gate" 0
    (List.length (Snapshot_diff.regressions r));
  (* improvements do not gate either *)
  let faster = snapshot ~measured:500 "TreeAdd" in
  let r = diff_exn ~tolerance:0.05 ~base ~current:faster in
  check int "improvement is not a regression" 0
    (List.length (Snapshot_diff.regressions r))

let test_diff_verified_flip () =
  let base = snapshot "TreeAdd" in
  let current = snapshot ~verified:false "TreeAdd" in
  let r = diff_exn ~tolerance:0.05 ~base ~current in
  check bool "verification failure gates" true
    (List.exists
       (fun d -> d.Snapshot_diff.metric = "verified")
       (Snapshot_diff.regressions r))

let test_diff_table_schema () =
  let base = table [ "TreeAdd"; "MST"; "EM3D" ] in
  let current = table [ "TreeAdd"; "EM3D"; "Power" ] in
  let r = diff_exn ~tolerance:0.05 ~base ~current in
  check (Alcotest.list string) "missing benchmarks listed" [ "MST" ]
    r.Snapshot_diff.missing;
  check (Alcotest.list string) "added benchmarks listed" [ "Power" ]
    r.Snapshot_diff.added;
  check int "matched benchmarks compared" (2 * 5)
    (List.length r.Snapshot_diff.deltas)

let test_diff_rejects_garbage () =
  let bad = Json.Obj [ ("schema", Json.String "nonsense/v9") ] in
  (match
     Snapshot_diff.compare_json ~tolerance:0.05 ~base:bad
       ~current:(snapshot "X")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unrecognized schema must be rejected");
  match
    Snapshot_diff.compare_json ~tolerance:0.05 ~base:(Json.Int 3)
      ~current:(snapshot "X")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-snapshot must be rejected"

(* --- Summary digest -------------------------------------------------------- *)

let test_summary_empty () =
  let s = Format.asprintf "%a" (Trace_summary.pp ?site_name:None ?head:None) [||] in
  check string "empty stream digest" "0 events\n" s

let test_summary_digest () =
  let events =
    [|
      ev ~t:0 ~p:0 ~tid:1 ~site:5 (Trace.Migrate_send { target = 1 });
      ev ~t:2800 ~p:1 ~tid:1 (Trace.Migrate_arrive { source = 0 });
      ev ~t:3000 ~p:1 ~tid:1 (Trace.Phase_mark "kernel");
    |]
  in
  let site_name = function 5 -> Some "t->left@treeadd" | _ -> None in
  let s =
    Format.asprintf "%a" (Trace_summary.pp ~site_name ~head:3) events
  in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check bool "event count" true (contains "3 events");
  check bool "time span" true (contains "time span: 0 .. 3000 cycles");
  check bool "kind totals" true (contains "migrate_send");
  check bool "phase marks" true (contains "kernel");
  check bool "head resolves site names" true (contains "t->left@treeadd")

let suite =
  [
    Alcotest.test_case "attribution charges" `Quick test_attribution_charges;
    Alcotest.test_case "attribution site names" `Quick test_attribution_names;
    Alcotest.test_case "attribution unattributed bucket" `Quick
      test_attribution_unattributed;
    Alcotest.test_case "attribution empty stream" `Quick
      test_attribution_empty;
    Alcotest.test_case "folded stacks" `Quick test_folded;
    Alcotest.test_case "critical path: migration chain" `Quick
      test_critical_path_migration_chain;
    Alcotest.test_case "critical path: future wait" `Quick
      test_critical_path_future_wait;
    Alcotest.test_case "critical path: ties" `Quick test_critical_path_ties;
    Alcotest.test_case "critical path: empty stream" `Quick
      test_critical_path_empty;
    Alcotest.test_case "processor breakdown identity" `Quick
      test_breakdown_identity;
    Alcotest.test_case "treeadd reconciliation (8 procs)" `Quick
      test_treeadd_reconciles;
    Alcotest.test_case "em3d stalls equal machine comm" `Quick
      test_em3d_stalls_match_comm;
    Alcotest.test_case "diff: identical snapshots" `Quick test_diff_identical;
    Alcotest.test_case "diff: cycle regression" `Quick test_diff_regression;
    Alcotest.test_case "diff: context metrics and improvements" `Quick
      test_diff_context_not_gated;
    Alcotest.test_case "diff: verified flip" `Quick test_diff_verified_flip;
    Alcotest.test_case "diff: table schema" `Quick test_diff_table_schema;
    Alcotest.test_case "diff: rejects garbage" `Quick
      test_diff_rejects_garbage;
    Alcotest.test_case "summary: empty stream" `Quick test_summary_empty;
    Alcotest.test_case "summary: digest" `Quick test_summary_digest;
  ]
