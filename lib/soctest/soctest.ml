(** Umbrella module: one [open Soctest] (or dune dependency on
    [soctest]) brings the whole framework into scope with short paths.

    {2 SOC description}
    - {!Core_def}, {!Soc_def} — core/SOC test parameters
    - {!Soc_parser}, {!Soc_writer} — the [.soc] text format
    - {!Benchmarks} — d695 + synthetic industrial SOCs; {!Synth}

    {2 Wrapper and TAM}
    - {!Wrapper_design}, {!Pareto}, {!Scan_partition}, {!Bfd}
    - {!Rectangle}, {!Schedule}, {!Schedule_io}, {!Wire_alloc}
    - {!Gantt}, {!Gantt_svg}, {!Sched_stats}

    {2 Scheduling (the paper's contribution)}
    - {!Constraint_def}, {!Conflict}
    - {!Optimizer}, {!Sched_state}, {!Lower_bound}, {!Budget}
    - {!Volume}, {!Cost}, {!Improve}, {!Abort_fail}
    - {!Audit} — first-principles wire-exact schedule auditor

    {2 Solver service layer}
    - {!Engine} — request/outcome API over the deduplicating caches
    - {!Flow} — the paper's three problems as one-call flows
    - {!Server}, {!Serve_protocol}, {!Serve_http}, {!Serve_client} — the
      [soctest serve] HTTP/JSON daemon with admission control and
      audited responses

    {2 Baselines}
    - {!Serial}, {!Session}, {!Shelf}, {!Fixed_width}

    {2 Rectangle bin packing}
    - {!Pack_model}, {!Pack_skyline} — rectangle menus and the skyline
    - {!Rectpack} (arXiv 1008.4448 / 1008.4446), {!Bnb} — the packing
      strategy family and the one exact solver (constraint-aware
      branch-and-bound)

    {2 Parallel portfolio}
    - {!Pool}, {!Strategy}, {!Portfolio}, {!Telemetry}

    {2 Observability}
    - {!Obs} — spans, instants, counters, gauges, histograms
    - {!Obs_export} — Chrome trace / JSONL exporters; {!Obs_summary}
    - {!Json} — minimal JSON value type, renderer and checker

    {2 Tester substrate}
    - {!Bitstream}, {!Pattern_gen}, {!Compress}, {!Tester_image},
      {!Test_program}, {!Multisite}, {!Power_model}

    {2 Hardware}
    - {!Overhead}, {!Verilog}

    {2 Reporting and experiments}
    - {!Table}, {!Plot}, {!Csv}
    - {!Experiments} (the per-table/figure drivers) *)

module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Soc_parser = Soctest_soc.Soc_parser
module Soc_writer = Soctest_soc.Soc_writer
module Benchmarks = Soctest_soc.Benchmarks
module Synth = Soctest_soc.Synth

module Bfd = Soctest_wrapper.Bfd
module Wrapper_design = Soctest_wrapper.Wrapper_design
module Pareto = Soctest_wrapper.Pareto
module Scan_partition = Soctest_wrapper.Scan_partition

module Rectangle = Soctest_tam.Rectangle
module Schedule = Soctest_tam.Schedule
module Schedule_io = Soctest_tam.Schedule_io
module Wire_alloc = Soctest_tam.Wire_alloc
module Gantt = Soctest_tam.Gantt
module Gantt_svg = Soctest_tam.Gantt_svg
module Sched_stats = Soctest_tam.Sched_stats

module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module Audit = Soctest_check.Audit

module Optimizer = Soctest_core.Optimizer
module Sched_state = Soctest_core.Sched_state
module Lower_bound = Soctest_core.Lower_bound
module Budget = Soctest_core.Budget
module Volume = Soctest_core.Volume
module Cost = Soctest_core.Cost
module Improve = Soctest_core.Improve
module Anneal = Soctest_core.Anneal
module Abort_fail = Soctest_core.Abort_fail

module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow

module Server = Soctest_serve.Server
module Serve_protocol = Soctest_serve.Protocol
module Serve_http = Soctest_serve.Http
module Serve_client = Soctest_serve.Serve_client

module Serial = Soctest_baselines.Serial
module Session = Soctest_baselines.Session
module Shelf = Soctest_baselines.Shelf
module Fixed_width = Soctest_baselines.Fixed_width

module Pack_model = Soctest_pack.Model
module Pack_skyline = Soctest_pack.Skyline
module Rectpack = Soctest_pack.Rectpack
module Bnb = Soctest_pack.Bnb

module Pool = Soctest_portfolio.Pool
module Strategy = Soctest_portfolio.Strategy
module Portfolio = Soctest_portfolio.Portfolio
module Telemetry = Soctest_portfolio.Telemetry

module Obs = Soctest_obs.Obs
module Obs_export = Soctest_obs.Export
module Obs_summary = Soctest_obs.Summary
module Json = Soctest_obs.Json

module Bitstream = Soctest_tester.Bitstream
module Pattern_gen = Soctest_tester.Pattern_gen
module Compress = Soctest_tester.Compress
module Tester_image = Soctest_tester.Tester_image
module Test_program = Soctest_tester.Test_program
module Multisite = Soctest_tester.Multisite
module Power_model = Soctest_tester.Power_model

module Overhead = Soctest_hardware.Overhead
module Verilog = Soctest_hardware.Verilog

module Table = Soctest_report.Table
module Plot = Soctest_report.Plot
module Csv = Soctest_report.Csv

module Experiments = struct
  module Table1 = Soctest_experiments.Table1
  module Table2 = Soctest_experiments.Table2
  module Fig1 = Soctest_experiments.Fig1
  module Fig2 = Soctest_experiments.Fig2
  module Fig9 = Soctest_experiments.Fig9
  module Ablation = Soctest_experiments.Ablation
  module Exact_gap = Soctest_experiments.Exact_gap
  module Tester_exp = Soctest_experiments.Tester_exp
  module Hardware_exp = Soctest_experiments.Hardware_exp
  module Polish_exp = Soctest_experiments.Polish_exp
  module Defect_exp = Soctest_experiments.Defect_exp
  module Flexible_exp = Soctest_experiments.Flexible_exp
end
