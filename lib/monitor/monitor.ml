(* Simulated-clock telemetry.  See monitor.mli for the model.

   Layering: this module depends only on olden_trace (Metrics + Json),
   so the machine, recovery, and runtime layers can all call into it
   without a dependency cycle; the driver supplies the machine state it
   samples as a [probe] of closures. *)

module Metrics = Olden_trace.Metrics
module Json = Olden_trace.Json

type mech = Local | Cache | Migrate | Fallback

let mech_index = function Local -> 0 | Cache -> 1 | Migrate -> 2 | Fallback -> 3
let mech_name = function
  | Local -> "local"
  | Cache -> "cache"
  | Migrate -> "migrate"
  | Fallback -> "fallback"

let mechs = [| Local; Cache; Migrate; Fallback |]
let mech_of_index i = mechs.(i)

type probe = {
  stats : unit -> (string * int) list;
  busy : unit -> int array;
  comm : unit -> int array;
  recovery_stall : unit -> int array;
}

type window = {
  w_t0 : int;
  w_t1 : int;
  w_stats : (string * int) list;
  w_procs : (int * int * int * int) array;
  w_latency : Json.t;
}

type t = {
  interval : int;
  nprocs : int;
  probe : probe;
  lat : Metrics.t; (* aggregate latency histograms; windowed via deltas *)
  deref_h : Metrics.histogram array; (* indexed by mech_index *)
  migration_h : Metrics.histogram;
  return_h : Metrics.histogram;
  retry_h : Metrics.histogram;
  recovery_h : Metrics.histogram;
  site_reg : Metrics.t; (* per-site histograms, kept out of window rows *)
  mutable site_h : Metrics.histogram array;
      (* indexed by sid * 4 + mech_index; [no_site] marks a slot never
         observed.  Grows by doubling to cover the largest key seen. *)
  req_reg : Metrics.t; (* per-request-class admission→completion latency *)
  req_h : (string, Metrics.histogram) Hashtbl.t; (* keyed by class label *)
  mutable mark : int; (* left edge of the open window *)
  mutable prev_stats : (string * int) list;
  mutable prev_busy : int array;
  mutable prev_comm : int array;
  mutable prev_recovery : int array;
  mutable prev_lat : Metrics.snapshot;
  mutable rev_windows : window list;
  mutable finished : bool;
}

(* The empty-slot sentinel of [site_h], told apart by physical equality;
   never observed into. *)
let no_site = Metrics.histogram (Metrics.create ()) "no_site"

let create ~interval ~nprocs ~probe =
  if interval < 1 then invalid_arg "Monitor.create: interval < 1";
  let lat = Metrics.create () in
  {
    interval;
    nprocs;
    probe;
    lat;
    deref_h =
      Array.map
        (fun m ->
          Metrics.histogram lat
            ~labels:[ ("mech", mech_name m) ]
            "deref_latency")
        mechs;
    migration_h = Metrics.histogram lat "migration_latency";
    return_h = Metrics.histogram lat "return_latency";
    retry_h = Metrics.histogram lat "retry_wait_cycles";
    recovery_h = Metrics.histogram lat "recovery_stall_cycles";
    site_reg = Metrics.create ();
    site_h = Array.make 256 no_site;
    req_reg = Metrics.create ();
    req_h = Hashtbl.create 8;
    mark = 0;
    prev_stats = [];
    prev_busy = Array.make nprocs 0;
    prev_comm = Array.make nprocs 0;
    prev_recovery = Array.make nprocs 0;
    prev_lat = Metrics.snapshot lat;
    rev_windows = [];
    finished = false;
  }

let interval t = t.interval
let nprocs t = t.nprocs

(* Close the open window at [t1]: compute every delta against the
   previous sample, then advance the sample point. *)
let sample t ~t1 =
  let stats = t.probe.stats () in
  let busy = t.probe.busy () in
  let comm = t.probe.comm () in
  let recovery = t.probe.recovery_stall () in
  let w_stats =
    if t.prev_stats = [] then stats
    else List.map2 (fun (name, v) (_, v0) -> (name, v - v0)) stats t.prev_stats
  in
  let span = t1 - t.mark in
  let w_procs =
    Array.init t.nprocs (fun p ->
        let b = busy.(p) - t.prev_busy.(p) in
        let c = comm.(p) - t.prev_comm.(p) in
        let r =
          if p < Array.length recovery then
            recovery.(p) - t.prev_recovery.(p)
          else 0
        in
        (b, c, span - b - c, r))
  in
  let w_latency = Metrics.delta_json t.lat ~since:t.prev_lat in
  t.rev_windows <-
    { w_t0 = t.mark; w_t1 = t1; w_stats; w_procs; w_latency }
    :: t.rev_windows;
  t.mark <- t1;
  t.prev_stats <- stats;
  t.prev_busy <- busy;
  t.prev_comm <- comm;
  t.prev_recovery <- recovery;
  t.prev_lat <- Metrics.snapshot t.lat

let tick t time =
  if (not t.finished) && time - t.mark >= t.interval then
    (* close every whole window the clock has passed; [mark] stays a
       multiple of [interval], so one sample covers them all *)
    sample t ~t1:(time / t.interval * t.interval)

let finish t ~makespan =
  if not t.finished then begin
    if makespan > t.mark || t.rev_windows = [] then
      sample t ~t1:(max makespan t.mark);
    t.finished <- true
  end

let windows t = List.rev t.rev_windows

(* A site's histogram, created on its first observation (cold). *)
let new_site_h t ~key ~sid ~mech =
  if key >= Array.length t.site_h then begin
    let bigger =
      Array.make (max (key + 1) (2 * Array.length t.site_h)) no_site
    in
    Array.blit t.site_h 0 bigger 0 (Array.length t.site_h);
    t.site_h <- bigger
  end;
  let h =
    Metrics.histogram t.site_reg
      ~labels:[ ("mech", mech_name mech); ("sid", Printf.sprintf "%06d" sid) ]
      "deref_latency"
  in
  t.site_h.(key) <- h;
  h

let deref_in t ~sid ~mech ~cycles =
  Metrics.observe t.deref_h.(mech_index mech) cycles;
  if sid >= 0 then begin
    let key = (sid * 4) + mech_index mech in
    let h =
      if key < Array.length t.site_h && t.site_h.(key) != no_site then
        t.site_h.(key)
      else new_site_h t ~key ~sid ~mech
    in
    Metrics.observe h cycles
  end

let migration t ~cycles = Metrics.observe t.migration_h cycles
let return_stub t ~cycles = Metrics.observe t.return_h cycles
let retry_wait t ~cycles = Metrics.observe t.retry_h cycles
let recovery_stall t ~cycles = Metrics.observe t.recovery_h cycles

(* One served request's admission→completion latency, bucketed by its
   class label.  The histogram registry is separate from the windowed
   one (like per-site), so batch exports stay byte-identical when no
   requests were served. *)
let request t ~klass ~cycles =
  let h =
    match Hashtbl.find_opt t.req_h klass with
    | Some h -> h
    | None ->
        let h =
          Metrics.histogram t.req_reg
            ~labels:[ ("class", klass) ]
            "request_latency"
        in
        Hashtbl.replace t.req_h klass h;
        h
  in
  Metrics.observe h cycles

(* --- Lookup forms -------------------------------------------------------- *)

(* A domain-local slot for callers that hold no monitor: [install] fills
   it and [deref] records into it.  Nothing in the simulator reads it;
   engines record into their own monitor. *)
let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let install m = Domain.DLS.get slot := Some m
let uninstall () = Domain.DLS.get slot := None

let deref ~sid ~mech ~cycles =
  match !(Domain.DLS.get slot) with
  | Some t -> deref_in t ~sid ~mech ~cycles
  | None -> ()

(* --- Latency summaries ------------------------------------------------- *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
}

let summarize h =
  {
    count = Metrics.observations h;
    sum = Metrics.sum h;
    min = Metrics.min_value h;
    max = Metrics.max_value h;
    mean = Metrics.mean h;
    p50 = Metrics.quantile h 0.5;
    p90 = Metrics.quantile h 0.9;
    p99 = Metrics.quantile h 0.99;
    p999 = Metrics.quantile h 0.999;
  }

let deref_summaries t =
  Array.to_list mechs
  |> List.filter_map (fun m ->
         let h = t.deref_h.(mech_index m) in
         if Metrics.observations h = 0 then None
         else Some (mech_name m, summarize h))

let episode_summaries t =
  [
    ("migration", t.migration_h);
    ("return", t.return_h);
    ("retry_wait", t.retry_h);
    ("recovery_stall", t.recovery_h);
  ]
  |> List.filter_map (fun (name, h) ->
         if Metrics.observations h = 0 then None
         else Some (name, summarize h))

let request_summaries t =
  Hashtbl.fold (fun klass h acc -> (klass, h) :: acc) t.req_h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (klass, h) -> (klass, summarize h))

let site_summaries ?(site_names = []) t =
  let rows = ref [] in
  for key = Array.length t.site_h - 1 downto 0 do
    if t.site_h.(key) != no_site then rows := (key, t.site_h.(key)) :: !rows
  done;
  !rows
  |> List.map (fun (key, h) ->
         let sid = key / 4 in
         let label =
           match List.assoc_opt sid site_names with
           | Some l -> l
           | None -> Printf.sprintf "site#%d" sid
         in
         (sid, label, mech_name mechs.(key mod 4), summarize h))

let deref_quantile t mech q = Metrics.quantile t.deref_h.(mech_index mech) q

(* --- Serialization ----------------------------------------------------- *)

let summary_fields s =
  [
    ("count", Json.Int s.count);
    ("sum", Json.Int s.sum);
    ("min", Json.Int s.min);
    ("max", Json.Int s.max);
    ("mean", Json.Float s.mean);
    ("p50", Json.Int s.p50);
    ("p90", Json.Int s.p90);
    ("p99", Json.Int s.p99);
    ("p999", Json.Int s.p999);
  ]

let latency_json ?site_names t =
  let deref =
    List.map
      (fun (m, s) -> Json.Obj (("mech", Json.String m) :: summary_fields s))
      (deref_summaries t)
  in
  let episode =
    List.map
      (fun (k, s) -> Json.Obj (("kind", Json.String k) :: summary_fields s))
      (episode_summaries t)
  in
  let per_site =
    List.map
      (fun (sid, label, m, s) ->
        Json.Obj
          ([
             ("sid", Json.Int sid);
             ("site", Json.String label);
             ("mech", Json.String m);
           ]
          @ summary_fields s))
      (site_summaries ?site_names t)
  in
  (* the request section appears only when requests were served, so
     every batch (non-serving) export stays byte-identical *)
  let request =
    match request_summaries t with
    | [] -> []
    | rows ->
        [
          ( "request",
            Json.List
              (List.map
                 (fun (k, s) ->
                   Json.Obj (("class", Json.String k) :: summary_fields s))
                 rows) );
        ]
  in
  Json.Obj
    ([
       ("deref", Json.List deref);
       ("episode", Json.List episode);
       ("per_site", Json.List per_site);
     ]
    @ request)

let window_json w =
  Json.Obj
    [
      ("t0", Json.Int w.w_t0);
      ("t1", Json.Int w.w_t1);
      ( "stats",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) w.w_stats) );
      ( "per_proc",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun p (b, c, i, r) ->
                  Json.Obj
                    [
                      ("proc", Json.Int p);
                      ("busy", Json.Int b);
                      ("comm", Json.Int c);
                      ("idle", Json.Int i);
                      ("recovery_stall", Json.Int r);
                    ])
                w.w_procs)) );
      ("latency", w.w_latency);
    ]

let timeseries_jsonl ?site_names ~header t =
  let ws = windows t in
  let head =
    Json.Obj
      ([ ("schema", Json.String "olden-timeseries/v1") ]
      @ header
      @ [
          ("interval", Json.Int t.interval);
          ("nprocs", Json.Int t.nprocs);
          ("windows", Json.Int (List.length ws));
        ])
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string head);
  Buffer.add_char buf '\n';
  List.iter
    (fun w ->
      Buffer.add_string buf (Json.to_string (window_json w));
      Buffer.add_char buf '\n')
    ws;
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj [ ("latency_total", latency_json ?site_names t) ]));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let csv t =
  let ws = windows t in
  let stat_names =
    match ws with
    | w :: _ -> List.map fst w.w_stats
    | [] -> List.map fst (t.probe.stats ())
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t0,t1";
  (* stat names are identifiers today, but quote defensively: one odd
     label must not shift every column after it *)
  List.iter
    (fun n ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Json.csv_field n))
    stat_names;
  for p = 0 to t.nprocs - 1 do
    Buffer.add_string buf (Printf.sprintf ",p%d_busy,p%d_comm,p%d_idle,p%d_recovery_stall" p p p p)
  done;
  Buffer.add_char buf '\n';
  List.iter
    (fun w ->
      Buffer.add_string buf (string_of_int w.w_t0);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int w.w_t1);
      List.iter
        (fun (_, v) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int v))
        w.w_stats;
      Array.iter
        (fun (b, c, i, r) ->
          Buffer.add_string buf (Printf.sprintf ",%d,%d,%d,%d" b c i r))
        w.w_procs;
      Buffer.add_char buf '\n')
    ws;
  Buffer.contents buf

(* Latency summaries as CSV: one row per mechanism, episode kind, and
   (site, mechanism) pair.  Site labels are "field@function" strings
   from user programs — always quoted through [Json.csv_field] so
   commas or quotes in a label cannot corrupt the row. *)
let latency_csv ?site_names t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "scope,kind,sid,site,count,sum,min,max,mean,p50,p90,p99,p999\n";
  let row ~scope ~kind ~sid ~site s =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%d,%.3f,%d,%d,%d,%d\n"
         (Json.csv_field scope) (Json.csv_field kind) sid
         (Json.csv_field site) s.count s.sum s.min s.max s.mean s.p50 s.p90
         s.p99 s.p999)
  in
  List.iter
    (fun (m, s) -> row ~scope:"deref" ~kind:m ~sid:"" ~site:"" s)
    (deref_summaries t);
  List.iter
    (fun (k, s) -> row ~scope:"episode" ~kind:k ~sid:"" ~site:"" s)
    (episode_summaries t);
  (* request-class labels come from the mix grammar — user-controlled,
     so commas/quotes must survive the quoting in [row] *)
  List.iter
    (fun (k, s) -> row ~scope:"request" ~kind:k ~sid:"" ~site:"" s)
    (request_summaries t);
  List.iter
    (fun (sid, label, m, s) ->
      row ~scope:"site" ~kind:m ~sid:(string_of_int sid) ~site:label s)
    (site_summaries ?site_names t);
  Buffer.contents buf
