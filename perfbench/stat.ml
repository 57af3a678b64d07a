(* Order statistics over a run's passes. *)

let sorted xs = List.sort compare xs

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them
   (the "exclusive" method), so the figures printed here match the ones
   computed over whole runs. *)
let quantiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then
    let x = if n = 1 then a.(0) else nan in
    (x, x, x)
  else
    let q i =
      let p = float_of_int ((n + 1) * i) /. 4. in
      let j = max 1 (min (n - 1) (int_of_float p)) in
      let frac = Float.min 1. (Float.max 0. (p -. float_of_int j)) in
      a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))
    in
    (q 1, q 2, q 3)

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let sumi = List.fold_left ( + ) 0
