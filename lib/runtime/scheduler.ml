(* The engine's run queues and the pick structure over them.

   Every processor owns an event queue (arrived migrations, return stubs,
   wakeups, injected requests, keyed by (ready_at, seq)) and a LIFO work
   list of saved future continuations.  Its best candidate is the queue
   top or the work-list top, whichever comes first in the global order
   (start, prio, avail, seq): start = max(clock, avail); a steal from the
   work list (prio 0) beats an arrival (prio 1) at equal start.

   Each processor's candidate key is cached, and an array-backed binary
   min-heap of processor ids (with a [pos] back-index) orders the cached
   keys, so a pick costs O(log P).  A cached key goes stale when the
   processor's queue, work list or clock changes; the caller reports
   that with [touch], and [pick] re-keys only the touched processors.
   Keys are unique (seq is globally unique), so the order is total and
   the heap's top is exactly the linear argmin over all processors. *)

type 'a work = { pushed_at : int; wseq : int; wtask : 'a }
type source = Event | Work
type report = { steps : int; rekeys : int; full_rekeys : int }

type 'a t = {
  now : int -> int; (* a processor's clock *)
  events : 'a Event_queue.t array;
  worklists : 'a work Stack.t array;
  (* cached candidate key per processor; all [max_int] when idle *)
  start : int array;
  prio : int array; (* 0 = work list, 1 = event queue *)
  avail : int array;
  seq : int array;
  heap : int array; (* every processor, heap-ordered by cached key *)
  pos : int array; (* heap.(pos.(p)) = p *)
  dirty : int array; (* processors whose cached key may be stale *)
  mutable ndirty : int;
  is_dirty : bool array;
  mutable steps : int;
  mutable rekeys : int;
  mutable full_rekeys : int;
}

let create ~nprocs ~now =
  {
    now;
    events = Array.init nprocs (fun _ -> Event_queue.create ());
    worklists = Array.init nprocs (fun _ -> Stack.create ());
    start = Array.make nprocs max_int;
    prio = Array.make nprocs max_int;
    avail = Array.make nprocs max_int;
    seq = Array.make nprocs max_int;
    heap = Array.init nprocs Fun.id;
    pos = Array.init nprocs Fun.id;
    dirty = Array.make nprocs 0;
    ndirty = 0;
    is_dirty = Array.make nprocs false;
    steps = 0;
    rekeys = 0;
    full_rekeys = 0;
  }

let touch s p =
  if not s.is_dirty.(p) then begin
    s.is_dirty.(p) <- true;
    s.dirty.(s.ndirty) <- p;
    s.ndirty <- s.ndirty + 1
  end

let touch_all s =
  s.full_rekeys <- s.full_rekeys + 1;
  for p = 0 to Array.length s.heap - 1 do
    touch s p
  done

let push_event s ~proc ~ready_at ~seq task =
  Event_queue.push s.events.(proc) ~ready_at ~seq task;
  touch s proc

let push_work s ~proc ~pushed_at ~seq task =
  Stack.push { pushed_at; wseq = seq; wtask = task } s.worklists.(proc);
  touch s proc

(* --- The indexed heap ------------------------------------------------- *)

let before s a b =
  let sa = s.start.(a) and sb = s.start.(b) in
  sa < sb
  || sa = sb
     &&
     let pa = s.prio.(a) and pb = s.prio.(b) in
     pa < pb
     || pa = pb
        &&
        let aa = s.avail.(a) and ab = s.avail.(b) in
        aa < ab || (aa = ab && s.seq.(a) < s.seq.(b))

let place s p i =
  s.heap.(i) <- p;
  s.pos.(p) <- i

(* [p]'s slot is the hole at [i]; move it toward the root / the leaves *)
let rec sift_up s p i =
  let parent = (i - 1) / 2 in
  if i > 0 && before s p s.heap.(parent) then begin
    place s s.heap.(parent) i;
    sift_up s p parent
  end
  else place s p i

let rec sift_down s p i =
  let n = Array.length s.heap in
  let l = (2 * i) + 1 in
  if l >= n then place s p i
  else
    let r = l + 1 in
    let c = if r < n && before s s.heap.(r) s.heap.(l) then r else l in
    if before s s.heap.(c) p then begin
      place s s.heap.(c) i;
      sift_down s p c
    end
    else place s p i

let set_key s p ~start ~prio ~avail ~seq =
  s.start.(p) <- start;
  s.prio.(p) <- prio;
  s.avail.(p) <- avail;
  s.seq.(p) <- seq;
  let i = s.pos.(p) in
  if i > 0 && before s p s.heap.((i - 1) / 2) then sift_up s p i
  else sift_down s p i

let later (a : int) b = if a > b then a else b

let event_key s p clock (it : _ Event_queue.item) =
  set_key s p ~start:(later clock it.ready_at) ~prio:1 ~avail:it.ready_at
    ~seq:it.seq

(* The processor's best candidate: the work-list top wins unless the
   queue top starts strictly earlier. *)
let rekey s p =
  s.rekeys <- s.rekeys + 1;
  let clock = s.now p in
  let q = s.events.(p) in
  let wl = s.worklists.(p) in
  if Stack.is_empty wl then
    if Event_queue.is_empty q then
      set_key s p ~start:max_int ~prio:max_int ~avail:max_int ~seq:max_int
    else event_key s p clock (Event_queue.top q)
  else
    let w = Stack.top wl in
    let wstart = later clock w.pushed_at in
    if
      (not (Event_queue.is_empty q))
      && later clock (Event_queue.top q).ready_at < wstart
    then event_key s p clock (Event_queue.top q)
    else set_key s p ~start:wstart ~prio:0 ~avail:w.pushed_at ~seq:w.wseq

let pick s =
  for i = 0 to s.ndirty - 1 do
    let p = s.dirty.(i) in
    s.is_dirty.(p) <- false;
    rekey s p
  done;
  s.ndirty <- 0;
  let p = s.heap.(0) in
  if s.start.(p) = max_int then -1
  else begin
    s.steps <- s.steps + 1;
    p
  end

let start s p = s.start.(p)
let source s p = if s.prio.(p) = 0 then Work else Event

let take s p =
  touch s p;
  if s.prio.(p) = 0 then (Stack.pop s.worklists.(p)).wtask
  else (Event_queue.take s.events.(p)).Event_queue.payload

let events s p = Event_queue.length s.events.(p)
let works s p = Stack.length s.worklists.(p)

let move s ~victim ~successor =
  let q = s.events.(victim) in
  while not (Event_queue.is_empty q) do
    let it = Event_queue.take q in
    Event_queue.push s.events.(successor) ~ready_at:it.Event_queue.ready_at
      ~seq:it.Event_queue.seq it.Event_queue.payload
  done;
  (* pop all, re-push bottom-first so the victim's LIFO order survives on
     top of the successor's stack *)
  let stack = ref [] in
  let wl = s.worklists.(victim) in
  while not (Stack.is_empty wl) do
    stack := Stack.pop wl :: !stack
  done;
  List.iter (fun w -> Stack.push w s.worklists.(successor)) !stack;
  touch s victim;
  touch s successor

let report s =
  { steps = s.steps; rekeys = s.rekeys; full_rekeys = s.full_rekeys }
