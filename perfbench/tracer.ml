(* The benchmark's own spans, recorded around its calls into the program
   during the traced run.  Each span carries the counts taken at its
   boundaries; all of it stays in memory until the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for the workload's root *)
  name : string;
  t0 : float;
  t1 : float;
  counts : (string * float) list;
}

let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

(* Open a span under the current one; the returned function closes it. *)
let start name =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = Workload.now () in
  fun counts ->
    current := parent;
    recorded :=
      { id; parent; name; t0; t1 = Workload.now (); counts } :: !recorded

let with_span ?(counts = fun _ -> []) name f =
  let stop = start name in
  match f () with
  | v ->
      stop (counts v);
      v
  | exception e ->
      stop [];
      raise e

let spans () = List.rev !recorded

(* A span's duration minus the part its children cover. *)
let self_time s =
  let kids =
    List.fold_left
      (fun acc k -> if k.parent = s.id then acc +. (k.t1 -. k.t0) else acc)
      0. !recorded
  in
  s.t1 -. s.t0 -. kids

let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.9f,\"t1\":%.9f,\"self_s\":%.9f,\"counts\":{%s}}\n"
        s.id s.parent s.name s.t0 s.t1 (self_time s)
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%.17g" k v) s.counts)))
    (spans ());
  Buffer.contents b
