(* A fixed pool of OCaml domains draining a job list.

   Jobs are claimed from an atomic counter, so assignment of job to
   domain is racy — but each result lands in the slot of its submission
   index, results are returned in submission order, and the first
   failure (again in submission order) is re-raised after every worker
   has drained.  A caller whose jobs are independent and deterministic
   therefore observes identical output for any pool size, including 1
   (which runs everything inline on the calling domain).

   Simulator state is owned by an engine (its observability sinks) or
   domain-local (site registry, driver hooks), so each worker carries
   its own copy; jobs must still reset whatever per-run state they care
   about (e.g. [Site.reset]) because a pool domain is reused across
   jobs. *)

type stats = {
  domains : int;  (** workers actually spawned *)
  wall_seconds : float;  (** whole [map] call, submission to last join *)
  busy_seconds : float array;  (** per worker, summed over its jobs *)
  wait_seconds : float array;
      (** per worker: lifetime minus busy — startup, claim contention,
          and the tail wait while other workers finish the last jobs *)
}

let efficiency st =
  if st.domains = 0 || st.wall_seconds <= 0. then 1.
  else
    Array.fold_left ( +. ) 0. st.busy_seconds
    /. (float_of_int st.domains *. st.wall_seconds)

let map ?(domains = 1) f jobs =
  if domains < 1 then invalid_arg "Domain_pool.map: domains < 1";
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let results : ('b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let next = Atomic.make 0 in
  let nworkers = max 1 (min domains n) in
  let busy = Array.make nworkers 0. and wait = Array.make nworkers 0. in
  let worker w () =
    let t_spawn = Unix.gettimeofday () in
    let rec drain acc =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then acc
      else begin
        let t0 = Unix.gettimeofday () in
        let r =
          match f jobs.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        (* each slot is written by exactly one worker; publication to
           the caller happens-before via Domain.join *)
        results.(i) <- Some r;
        drain (acc +. (Unix.gettimeofday () -. t0))
      end
    in
    let b = drain 0. in
    busy.(w) <- b;
    wait.(w) <- Unix.gettimeofday () -. t_spawn -. b
  in
  let t_start = Unix.gettimeofday () in
  (if nworkers = 1 then worker 0 ()
   else begin
     let spawned =
       Array.init (nworkers - 1) (fun w -> Domain.spawn (worker (w + 1)))
     in
     worker 0 ();
     Array.iter Domain.join spawned
   end);
  let wall = Unix.gettimeofday () -. t_start in
  let out =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* the counter covered every index *))
      results
  in
  (* deterministic failure: the first failed job in submission order
     wins, whatever domain ran it *)
  Array.iter
    (function
      | Ok _ -> ()
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    out;
  let values =
    Array.to_list
      (Array.map (function Ok v -> v | Error _ -> assert false) out)
  in
  ( values,
    {
      domains = nworkers;
      wall_seconds = wall;
      busy_seconds = busy;
      wait_seconds = wait;
    } )
