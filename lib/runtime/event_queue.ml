(* A binary min-heap of scheduler items keyed by (ready_at, seq).

   The sequence number makes the simulation fully deterministic: two items
   ready at the same cycle pop in creation order. *)

type 'a item = { ready_at : int; seq : int; payload : 'a }

type 'a t = { mutable arr : 'a item array; mutable size : int }

(* Slots at index >= size are dead, but the array still roots whatever
   item record they hold — on long runs that pins popped closures (and
   everything they capture) until the slot happens to be overwritten.
   Dead slots are therefore filled with this shared dummy item.  Its
   payload is a unit stand-in: [item] is an ordinary boxed record (the
   array is a pointer array, never a float array), and no caller ever
   reads a slot at index >= size, so the cast is unobservable. *)
let dummy_item = { ready_at = min_int; seq = min_int; payload = Obj.repr () }
let dummy () : 'a item = Obj.magic dummy_item

let create () = { arr = [||]; size = 0 }

let is_empty q = q.size = 0
let length q = q.size

let before a b = a.ready_at < b.ready_at || (a.ready_at = b.ready_at && a.seq < b.seq)

let grow q =
  let cap = max 16 (2 * Array.length q.arr) in
  let arr = Array.make cap (dummy ()) in
  Array.blit q.arr 0 arr 0 q.size;
  q.arr <- arr

let push q ~ready_at ~seq payload =
  let it = { ready_at; seq; payload } in
  if q.size = Array.length q.arr then
    if q.size = 0 then q.arr <- Array.make 16 (dummy ()) else grow q;
  q.arr.(q.size) <- it;
  q.size <- q.size + 1;
  (* sift up *)
  let i = ref (q.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before q.arr.(!i) q.arr.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = q.arr.(parent) in
    q.arr.(parent) <- q.arr.(!i);
    q.arr.(!i) <- tmp;
    i := parent
  done

(* The minimum item, without allocating: the caller tests [is_empty]
   first and reads [ready_at]/[seq] off the item. *)
let top q =
  if q.size = 0 then invalid_arg "Event_queue.top: empty queue";
  q.arr.(0)

(* Remove and return the minimum item; raises on empty. *)
let take q =
  if q.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = q.arr.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then q.arr.(0) <- q.arr.(q.size);
  (* clear the vacated slot so the popped item is collectable now, not
     when the slot is next overwritten *)
  q.arr.(q.size) <- dummy ();
  if q.size > 0 then begin
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.size && before q.arr.(l) q.arr.(!smallest) then smallest := l;
      if r < q.size && before q.arr.(r) q.arr.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = q.arr.(!smallest) in
        q.arr.(!smallest) <- q.arr.(!i);
        q.arr.(!i) <- tmp;
        i := !smallest
      end
    done
  end;
  top
