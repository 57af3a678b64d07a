(* Public facade of the Olden reproduction.

   A user program is an ordinary OCaml function that performs its heap
   traffic through [Ops] and is executed on the simulated machine by
   [Engine.run]:

   {[
     let cfg = Olden.Config.make ~nprocs:8 () in
     let report =
       Olden.Engine.run cfg (fun () ->
         let site = Olden.Site.migrate "demo.t->next" in
         ...)
     in
     Format.printf "makespan: %d cycles@." report.Olden.Engine.makespan
   ]} *)

module Config = Olden_config
module Geometry = Olden_config.Geometry
module Gptr = Gptr
module Value = Value
module Memory = Memory
module Machine = Machine
module Obs = Obs
module Stats = Stats
module Write_log = Olden_cache.Write_log
module Translation = Olden_cache.Translation
module Directory = Olden_cache.Directory
module Cache_system = Olden_cache.Cache_system
module Site = Olden_runtime.Site
module Ops = Olden_runtime.Ops
module Engine = Olden_runtime.Engine
module Fault_plan = Fault_plan
module Recovery = Olden_recovery.Recovery
module Failover = Olden_recovery.Failover
module Effects = Olden_runtime.Effects
module Prng = Prng
module Timeline = Olden_runtime.Timeline
module Trace = Olden_trace.Trace
module Span = Olden_span.Span
module Flight = Olden_span.Flight
module Monitor = Olden_monitor.Monitor
module Json = Olden_trace.Json
module Metrics = Olden_trace.Metrics
module Chrome_trace = Olden_trace.Chrome_trace
module Jsonl = Olden_trace.Jsonl
module Recorder = Olden_trace.Recorder
module Trace_summary = Olden_trace.Summary
module Depgraph = Olden_trace.Depgraph
module Attribution = Olden_profile.Attribution
module Critical_path = Olden_profile.Critical_path
module Snapshot_diff = Olden_profile.Snapshot_diff
module Domain_pool = Olden_parallel.Domain_pool
module Sweep = Olden_parallel.Sweep
module Serving = Olden_serving.Serving
