(* Home-side per-page bookkeeping.

   The local-knowledge scheme needs none of this.  The global scheme tracks
   sharers (recorded when the home services cache requests) so that a
   releasing thread's written lines can be invalidated eagerly.  The
   bilateral scheme keeps a timestamp per page, plus per-line write stamps
   so a revalidating sharer can be told exactly which lines to drop
   (Appendix A). *)

type page = {
  mutable sharers : int; (* bitmask of processors holding a copy (global) *)
  mutable ts : int; (* current timestamp (bilateral scheme) *)
  line_ts : int array; (* per-line stamp of the last release-visible write *)
  mutable ever_shared : bool; (* drives the 7-vs-23-cycle write-track cost *)
}

module Trace = Olden_trace.Trace

type t = {
  pages : (int, page) Hashtbl.t; (* local page index -> record *)
  home : int; (* which processor's heap section this directory covers *)
  clock : unit -> int; (* the home's cycle clock, for event stamps *)
  trace : Trace.t; (* the run's emitter, guards every emit *)
  registered : (int * int, int) Hashtbl.t option;
      (* (page_index, proc) -> time of the latest sharer registration;
         kept only under a fault schedule, where the recovery checker
         needs to prove no mask names a processor past its crash epoch *)
}

(* Standalone directories (tests, tools) need no identity or clock; the
   cache system passes both so directory-side events carry real stamps. *)
let create ?(home = -1) ?(clock = fun () -> 0) ?(trace = Trace.off)
    ?(track_registrations = false) () =
  {
    pages = Hashtbl.create 64;
    home;
    clock;
    trace;
    registered = (if track_registrations then Some (Hashtbl.create 64) else None);
  }

(* Home-side bookkeeping runs under the home's identity; thread and site
   context are whatever the engine last deposited. *)
let emit t kind =
  Trace.emit t.trace
    { Trace.time = t.clock (); proc = t.home; tid = Trace.thread t.trace;
      site = Trace.site t.trace; kind }

let get t page_index =
  match Hashtbl.find_opt t.pages page_index with
  | Some p -> p
  | None ->
      let p =
        {
          sharers = 0;
          ts = 0;
          line_ts = Array.make Olden_config.Geometry.lines_per_page 0;
          ever_shared = false;
        }
      in
      Hashtbl.add t.pages page_index p;
      p

let add_sharer ?at t ~page_index ~proc =
  let p = get t page_index in
  p.ever_shared <- true;
  p.sharers <- p.sharers lor (1 lsl proc);
  match t.registered with
  | None -> ()
  | Some reg ->
      (* stamp with the *sharer's* clock when the caller provides it: the
         recovery checker compares registration times against the
         sharer's crash epoch, and per-processor clocks are not mutually
         synchronized *)
      let time = match at with Some time -> time | None -> t.clock () in
      Hashtbl.replace reg (page_index, proc) time

let registered_at t ~page_index ~proc =
  match t.registered with
  | None -> 0
  | Some reg ->
      Option.value ~default:0 (Hashtbl.find_opt reg (page_index, proc))

(* A crashed sharer lost its copies: strike it from every mask.  Returns
   the number of pages it was pruned from (the invalidations the global
   scheme will no longer waste on it). *)
let prune_sharer t ~proc =
  let bit = 1 lsl proc in
  let pruned = ref 0 in
  Hashtbl.iter
    (fun _index p ->
      if p.sharers land bit <> 0 then begin
        p.sharers <- p.sharers land lnot bit;
        incr pruned
      end)
    t.pages;
  !pruned

let iter_pages t f = Hashtbl.iter f t.pages

let remove_sharer t ~page_index ~proc =
  match Hashtbl.find_opt t.pages page_index with
  | None -> ()
  | Some p -> p.sharers <- p.sharers land lnot (1 lsl proc)

let sharer_mask t page_index =
  match Hashtbl.find_opt t.pages page_index with
  | None -> 0
  | Some p -> p.sharers

let sharers t page_index =
  let rec go p mask acc =
    if mask = 0 then List.rev acc
    else if mask land 1 <> 0 then go (p + 1) (mask lsr 1) (p :: acc)
    else go (p + 1) (mask lsr 1) acc
  in
  go 0 (sharer_mask t page_index) []

let is_shared t page_index =
  match Hashtbl.find_opt t.pages page_index with
  | None -> false
  | Some p -> p.ever_shared

(* Record a write-through arriving at the home: stamp the line with the
   next (not yet released) timestamp so a reader validated at the current
   timestamp will be told to drop it. *)
let record_write t ~page_index ~line =
  let p = get t page_index in
  p.line_ts.(line) <- p.ts + 1;
  if Trace.on t.trace then emit t (Trace.Dir_write { page = page_index; line })

(* A release (outgoing migration) makes the logged writes visible:
   advance the page timestamp past all pending stamps. *)
let bump_timestamp t ~page_index =
  let p = get t page_index in
  p.ts <- p.ts + 1;
  if Trace.on t.trace then
    emit t (Trace.Dir_release { page = page_index; ts = p.ts })

(* Bilateral revalidation: given the sharer's last-validated timestamp,
   return the mask of lines written since then and the current timestamp. *)
let stale_lines t ~page_index ~since =
  match Hashtbl.find_opt t.pages page_index with
  | None -> (0, 0)
  | Some p ->
      let mask = ref 0 in
      Array.iteri
        (fun line ts -> if ts > since then mask := !mask lor (1 lsl line))
        p.line_ts;
      (!mask, p.ts)
