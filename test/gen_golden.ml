(* Regenerate the golden streams used by test_trace.ml / test_span.ml:

     dune exec test/gen_golden.exe          > test/golden/treeadd_p2_trace.jsonl
     dune exec test/gen_golden.exe -- spans > test/golden/treeadd_p2_spans.jsonl

   Must stay in lockstep with Test_trace.run_treeadd and
   Test_span.run_treeadd: 2 processors, treeadd at the minimum tree size,
   site ids reset first. *)

open Olden
module B = Olden_benchmarks

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "trace" in
  Site.reset ();
  let cfg = Config.make ~nprocs:2 () in
  let h = B.Common.hooks () in
  h.record_spans <- mode = "spans";
  h.record_trace <- mode <> "spans";
  let o = B.Treeadd.spec.B.Common.run cfg ~scale:1_000_000 in
  assert o.B.Common.ok;
  match mode with
  | "spans" ->
      let r = Option.get h.last_retention in
      print_string (Span.jsonl ~folds:r.Span.folds (Option.get h.last_spans))
  | _ -> print_string (Jsonl.to_string (Option.get h.last_trace))
