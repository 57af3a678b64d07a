(* A fixed reference kernel, in the benchmark's own code, timed before
   every job.  Host speed on the shared machines this runs on drifts by a
   third over minutes, in phases longer than a run; the kernel slows with
   it, so a time divided by the kernel's and multiplied by its nominal
   time reads the same whatever the phase.  The kernel is shaped like the
   simulator's host work: effect round trips, small allocations, a hash
   table and an array.  It calls nothing in the program, so a change to
   the program moves the scaled times by its own effect. *)

type _ Effect.t += Yield : int -> int Effect.t

type tree = Leaf | Node of tree * int * tree

let rec build d = if d = 0 then Leaf else Node (build (d - 1), d, build (d - 1))
let rec sum = function Leaf -> 0 | Node (l, v, r) -> sum l + v + sum r

let fiber n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + Effect.perform (Yield i)
  done;
  !acc

let effects n =
  Effect.Deep.match_with fiber n
    {
      Effect.Deep.retc = (fun v -> v);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Yield i ->
              Some
                (fun (k : (a, int) Effect.Deep.continuation) ->
                  Effect.Deep.continue k (i land 7))
          | _ -> None);
    }

(* A live table the kernel keeps mutating with fresh boxed values, so
   the write barrier and the major collector get work, as the simulator's
   heap arrays do. *)
let live = lazy (Array.make (1 lsl 18) (0, 0))

let kernel () =
  let cells = Lazy.force live in
  let s = ref 1 in
  for i = 1 to 40_000 do
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    cells.(!s land (Array.length cells - 1)) <- (i, !s)
  done;
  let acc = ref (effects 16_000) in
  acc := !acc + sum (build 12);
  let h = Hashtbl.create 256 in
  for i = 1 to 32_000 do
    Hashtbl.replace h (i land 1023) (i, i + 1);
    match Hashtbl.find_opt h ((i * 7) land 1023) with
    | Some (a, _) -> acc := !acc + a
    | None -> ()
  done;
  let q = Array.make 64 0 in
  for i = 1 to 32_000 do
    let j = i land 63 in
    q.(j) <- q.(j) + q.((j * 5 + 1) land 63) + i
  done;
  Sys.opaque_identity (!acc + q.(0))

(* The kernel's time on the host the benchmark was defined on (Intel Xeon,
   2 vCPUs, OCaml 5.1.1, release build), in seconds. *)
let nominal_s = 0.010

let time () =
  let t0 = Unix.gettimeofday () in
  ignore (kernel ());
  Unix.gettimeofday () -. t0
