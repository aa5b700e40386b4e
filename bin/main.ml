(* soctest — CLI for the wrapper/TAM co-optimization framework.

   Subcommands regenerate each experiment of the paper (table1, table2,
   fig1, fig2, fig9, ablate, all), inspect SOC description files
   (soc-info), and run one-off schedules (schedule). *)

open Cmdliner

module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Benchmarks = Soctest_soc.Benchmarks
module Constraint_def = Soctest_constraints.Constraint_def
module Optimizer = Soctest_core.Optimizer
module Budget = Soctest_core.Budget
module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module Obs = Soctest_obs.Obs
module Obs_export = Soctest_obs.Export
module Obs_summary = Soctest_obs.Summary
module Log = Soctest_obs.Log
module Server = Soctest_serve.Server
module Serve_client = Soctest_serve.Serve_client
module Json = Soctest_obs.Json
module Store = Soctest_store.Store

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let load_soc spec =
  match Benchmarks.by_name spec with
  | Some soc -> soc
  | None ->
    if Sys.file_exists spec then Soctest_soc.Soc_parser.parse_file spec
    else
      failwith
        (Printf.sprintf
           "unknown SOC %S (not a benchmark name and not a file)" spec)

let soc_arg ~default =
  let doc =
    "SOC to use: a benchmark name (d695, p22810, p34392, p93791, mini4) \
     or a .soc file path."
  in
  Arg.(value & opt string default & info [ "soc" ] ~docv:"SOC" ~doc)

let width_arg ~default =
  let doc = "Total SOC TAM width W." in
  Arg.(value & opt int default & info [ "w"; "width" ] ~docv:"W" ~doc)

let csv_arg =
  let doc = "Also write the raw data as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let store_arg =
  let doc =
    "Layer the persistent result store at $(docv) (created on first \
     use) under the in-memory caches: previously solved requests are \
     answered from disk after an integrity audit, new solves are \
     written through. The $(b,SOCTEST_STORE) environment variable sets \
     the same default."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let open_store path = Option.map (fun p -> Store.open_ p) path

(* Write [contents] to [path] without leaking the channel when the write
   itself raises (ENOSPC, closed pipe, ...). *)
let write_string_to_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_csv path contents =
  match path with
  | None -> ()
  | Some path ->
    write_string_to_file path contents;
    Printf.printf "(csv written to %s)\n" path

(* Observability sinks, shared by schedule/sweep/portfolio. *)

let trace_arg =
  let doc =
    "Profile the run and write a Chrome trace_event JSON document to \
     $(docv) (open it at chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write recorded counters, gauges and histograms (plus every span) \
     as JSON Lines to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let obs_summary_arg =
  let doc =
    "Print a plain-text profile after the run: per-span wall time and \
     allocation, then non-zero counters, gauges and histograms."
  in
  Arg.(value & flag & info [ "obs-summary" ] ~doc)

(* Record around [f] only when some sink was requested; the default path
   leaves recording off, so instrumented code pays one atomic load per
   probe. Sinks are flushed even when [f] raises — a failed run still
   leaves a trace to inspect. *)
let with_obs ~trace ~metrics ~summary f =
  if trace = None && metrics = None && not summary then f ()
  else begin
    Obs.enable ();
    let flush () =
      let events = Obs.events () in
      let m = Obs.metrics () in
      Obs.disable ();
      (match trace with
      | None -> ()
      | Some path ->
        write_string_to_file path (Obs_export.chrome_trace events m);
        Printf.printf "(trace written to %s)\n" path);
      (match metrics with
      | None -> ()
      | Some path ->
        write_string_to_file path (Obs_export.jsonl events m);
        Printf.printf "(metrics written to %s)\n" path);
      if summary then print_string (Obs_summary.render events m)
    in
    match f () with
    | v ->
      flush ();
      v
    | exception e ->
      (* best-effort flush: a sink error must not mask the run's own
         failure (and must not surface as Fun.Finally_raised) *)
      (try flush () with _ -> ());
      raise e
  end

let wrap f =
  try `Ok (f ()) with
  | Failure msg -> `Error (false, msg)
  | Invalid_argument msg -> `Error (false, msg)
  | Sys_error msg -> `Error (false, msg)
  | Soctest_soc.Soc_parser.Parse_error e ->
    `Error (false, Format.asprintf "%a" Soctest_soc.Soc_parser.pp_error e)
  | Soctest_store.Store.Corrupt_store msg -> `Error (false, msg)
  | Soctest_core.Optimizer.Infeasible msg ->
    `Error (false, "infeasible: " ^ msg)
  | Serve_client.Error e ->
    `Error (false, "serve client: " ^ Serve_client.error_message e)
  | Soctest_portfolio.Portfolio.No_solution msg ->
    `Error (false, "portfolio: " ^ msg)
  | Soctest_check.Audit.Failed (source, report) ->
    `Error
      ( false,
        Format.asprintf "audit failed (%s): %a" source
          Soctest_check.Audit.pp_report report )
  | Soctest_tam.Wire_alloc.Capacity_exceeded { time; core; deficit } ->
    `Error
      ( false,
        Printf.sprintf
          "wire allocation failed: core %d short %d wire(s) at t=%d" core
          deficit time )

(* ------------------------------------------------------------------ *)
(* experiment commands *)

let table1_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Use a single (percent, delta) pair instead of the full grid.")
  in
  let run quick csv =
    wrap (fun () ->
        let results = Soctest_experiments.Table1.run ~quick () in
        print_string (Soctest_experiments.Table1.to_table results);
        write_csv csv (Soctest_experiments.Table1.to_csv results))
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:"Reproduce Table 1 (scheduling results for all four SOCs).")
    Term.(ret (const run $ quick $ csv_arg))

let table2_cmd =
  let run csv =
    wrap (fun () ->
        let results = Soctest_experiments.Table2.run () in
        print_string (Soctest_experiments.Table2.to_table results);
        write_csv csv (Soctest_experiments.Table2.to_csv results))
  in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Reproduce Table 2 (effective TAM widths for data volume).")
    Term.(ret (const run $ csv_arg))

let fig1_cmd =
  let core =
    Arg.(
      value & opt int 6
      & info [ "core" ] ~docv:"ID" ~doc:"Core id to analyze.")
  in
  let run soc core csv =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig1.run ~soc ~core_id:core () in
        print_string (Soctest_experiments.Fig1.to_plot r);
        print_newline ();
        print_string (Soctest_experiments.Fig1.to_table r);
        write_csv csv (Soctest_experiments.Fig1.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig1"
       ~doc:"Reproduce Fig. 1 (testing time vs TAM width staircase).")
    Term.(ret (const run $ soc_arg ~default:"p93791" $ core $ csv_arg))

let fig2_cmd =
  let run soc width =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig2.run ~soc ~tam_width:width () in
        print_string (Soctest_experiments.Fig2.render r))
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Reproduce Fig. 2 (example schedule as a Gantt).")
    Term.(ret (const run $ soc_arg ~default:"d695" $ width_arg ~default:16))

let fig9_cmd =
  let max_width =
    Arg.(
      value & opt int 80
      & info [ "max-width" ] ~docv:"W" ~doc:"Largest TAM width to sweep.")
  in
  let run soc max_width csv =
    wrap (fun () ->
        let soc = load_soc soc in
        let r = Soctest_experiments.Fig9.run ~soc ~max_width () in
        print_string (Soctest_experiments.Fig9.to_plots r);
        write_csv csv (Soctest_experiments.Fig9.to_csv r))
  in
  Cmd.v
    (Cmd.info "fig9"
       ~doc:"Reproduce Fig. 9 (time, volume and cost curves vs TAM width).")
    Term.(ret (const run $ soc_arg ~default:"p22810" $ max_width $ csv_arg))

let ablate_cmd =
  let run () =
    wrap (fun () ->
        let open Soctest_experiments.Ablation in
        print_string (delta_table (delta_effect ()));
        print_newline ();
        print_string (slack_table (insert_slack_effect ()));
        print_newline ();
        print_string
          (packer_table ~soc_name:"d695" ~tam_width:32
             (packer_comparison ()));
        print_newline ();
        print_string
          (packer_table ~soc_name:"p22810" ~tam_width:32
             (packer_comparison ~soc:(Benchmarks.p22810 ()) ()));
        print_newline ();
        print_string (wrapper_table (wrapper_quality ())))
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run the design-choice ablation experiments.")
    Term.(ret (const run $ const ()))

let all_cmd =
  let run quick =
    wrap (fun () ->
        let results = Soctest_experiments.Table1.run ~quick () in
        print_string (Soctest_experiments.Table1.to_table results);
        print_newline ();
        print_string
          (Soctest_experiments.Table2.to_table
             (Soctest_experiments.Table2.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig1.to_table
             (Soctest_experiments.Fig1.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig2.render (Soctest_experiments.Fig2.run ()));
        print_newline ();
        print_string
          (Soctest_experiments.Fig9.to_plots
             (Soctest_experiments.Fig9.run ())))
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick parameter grid for Table 1.")
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every table and figure of the paper in order.")
    Term.(ret (const run $ quick))

let extras_cmd =
  let run soc_name =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let name = soc.Soc_def.name in
        print_string
          (Soctest_experiments.Exact_gap.to_table ~soc_name:name
             (Soctest_experiments.Exact_gap.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.memory_to_table ~soc_name:name
             (Soctest_experiments.Tester_exp.memory_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.compression_to_table
             ~soc_name:name
             (Soctest_experiments.Tester_exp.compression_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Tester_exp.multisite_to_table ~soc_name:name
             ~batch_size:10_000
             (Soctest_experiments.Tester_exp.multisite_table ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Hardware_exp.to_table
             (Soctest_experiments.Hardware_exp.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Polish_exp.to_table
             (Soctest_experiments.Polish_exp.run
                ~socs:[ (name, soc) ] ()));
        print_newline ();
        print_string
          (Soctest_experiments.Defect_exp.to_table
             (Soctest_experiments.Defect_exp.run ~soc ()));
        print_newline ();
        print_string
          (Soctest_experiments.Flexible_exp.to_table
             [ Soctest_experiments.Flexible_exp.run ~soc () ]))
  in
  Cmd.v
    (Cmd.info "extras"
       ~doc:
         "Extension experiments: exact-vs-heuristic gap, tester memory \
          utilization, test-data compression, multisite planning, \
          hardware overhead.")
    Term.(ret (const run $ soc_arg ~default:"d695"))

let verilog_cmd =
  let run soc_name width out =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let prepared = Optimizer.prepare soc in
        let constraints =
          Constraint_def.unconstrained
            ~core_count:(Soc_def.core_count soc)
        in
        let r =
          Optimizer.run prepared ~tam_width:width ~constraints
            ~params:Optimizer.default_params
        in
        let text =
          Soctest_hardware.Verilog.soc_testbench prepared
            ~widths:r.Optimizer.widths
        in
        match out with
        | None -> print_string text
        | Some path ->
          write_string_to_file path text;
          Printf.printf "wrote %s (%d lines)\n" path
            (List.length (String.split_on_char '\n' text)))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to a file.")
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:"Emit the structural Verilog wrapper/TAM netlist for an SOC.")
    Term.(ret (const run $ soc_arg ~default:"mini4" $ width_arg ~default:16 $ out))

let stil_cmd =
  let max_cycles =
    Arg.(
      value
      & opt (some int) (Some 64)
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:"Truncate the vector list (pass 0 for the full program).")
  in
  let run soc_name width max_cycles =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let prepared = Optimizer.prepare soc in
        let r =
          Optimizer.run prepared ~tam_width:width
            ~constraints:
              (Constraint_def.unconstrained
                 ~core_count:(Soc_def.core_count soc))
            ~params:Optimizer.default_params
        in
        let program =
          Soctest_tester.Test_program.build prepared r.Optimizer.schedule
        in
        let max_cycles =
          match max_cycles with Some 0 -> None | m -> m
        in
        print_string
          (Soctest_tester.Test_program.to_stil ?max_cycles program))
  in
  Cmd.v
    (Cmd.info "stil"
       ~doc:"Emit the transport-level tester program (STIL-like vectors).")
    Term.(
      ret
        (const run $ soc_arg ~default:"mini4" $ width_arg ~default:8
       $ max_cycles))

let sweep_cmd =
  let max_width =
    Arg.(
      value & opt int 64
      & info [ "max-width" ] ~docv:"W" ~doc:"Largest TAM width to sweep.")
  in
  let run soc_name max_width csv trace metrics obs_summary =
    wrap (fun () ->
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        let soc = load_soc soc_name in
        let points =
          (Flow.solve_sweep
             (Flow.sweep_spec soc
                ~widths:(List.init max_width (fun k -> k + 1))
                ~alphas:[]))
            .Flow.points
        in
        let front = Soctest_core.Volume.pareto_front points in
        let table =
          Soctest_report.Table.create
            ~title:
              (Printf.sprintf
                 "Time/volume Pareto front for %s (non-dominated widths)"
                 soc.Soc_def.name)
            ~columns:
              Soctest_report.Table.
                [
                  ("W", Right); ("T (cycles)", Right); ("V (bits)", Right);
                ]
            ()
        in
        List.iter
          (fun p ->
            Soctest_report.Table.add_int_row table
              (string_of_int p.Soctest_core.Volume.width)
              [ p.Soctest_core.Volume.time; p.Soctest_core.Volume.volume ])
          front;
        print_string (Soctest_report.Table.render table);
        write_csv csv
          (Soctest_report.Csv.render ~header:[ "width"; "time"; "volume" ]
             ~rows:
               (List.map
                  (fun p ->
                    [
                      string_of_int p.Soctest_core.Volume.width;
                      string_of_int p.Soctest_core.Volume.time;
                      string_of_int p.Soctest_core.Volume.volume;
                    ])
                  points)))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep TAM widths and print the non-dominated (time, volume)           front.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ max_width $ csv_arg
       $ trace_arg $ metrics_arg $ obs_summary_arg))

let portfolio_cmd =
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains to race strategies on (0 = one less than the \
             recommended domain count, at least 1).")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Skip strategies that have not started after $(docv) \
             milliseconds (running ones are never interrupted).")
  in
  let strategies =
    Arg.(
      value & opt string "all"
      & info [ "strategies" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated strategy kinds to race: any of grid, anneal, \
             polish, baseline, rectpack, rectpack-diagonal, exact-bnb, or \
             $(b,all) (see $(b,--list-strategies)).")
  in
  let list_strategies =
    Arg.(
      value & flag
      & info [ "list-strategies" ]
          ~doc:
            "Print the registered strategy kind names (the tokens \
             $(b,--strategies) accepts), one per line, and exit.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full race telemetry (with timings) as JSON.")
  in
  let preempt =
    Arg.(
      value & opt int 0
      & info [ "preempt" ] ~docv:"N"
          ~doc:"Allow N preemptions on the larger cores.")
  in
  let power =
    Arg.(
      value & flag
      & info [ "power" ]
          ~doc:"Apply the default power limit (1.5x the largest core).")
  in
  let parse_kinds spec =
    if spec = "all" then None
    else
      Some
        (List.map
           (fun name ->
             match Soctest_portfolio.Strategy.kind_of_string name with
             | Some kind -> kind
             | None ->
               failwith
                 (Printf.sprintf
                    "unknown strategy kind %S (expected one of %s, or all)"
                    name
                    (String.concat ", "
                       (List.map Soctest_portfolio.Strategy.kind_name
                          Soctest_portfolio.Strategy.all_kinds))))
           (String.split_on_char ',' (String.trim spec)))
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Save the winning schedule in the textual schedule format \
             (byte-identical across $(b,--jobs) values).")
  in
  let run soc width jobs deadline strategies list_strategies preempt power
      csv json save trace metrics obs_summary =
    wrap (fun () ->
        if list_strategies then
          List.iter
            (fun k ->
              print_endline (Soctest_portfolio.Strategy.kind_name k))
            Soctest_portfolio.Strategy.all_kinds
        else
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        let soc = load_soc soc in
        (* one engine cache for the whole race: strategies share Pareto
           analyses and dedup overlapping evaluations *)
        let engine = Engine.create () in
        let prepared = Engine.prepare engine soc in
        let max_preempts =
          if preempt > 0 then Flow.preemption_budget soc ~limit:preempt
          else []
        in
        let constraints =
          Constraint_def.of_soc soc ~max_preemptions:max_preempts
            ?power_limit:
              (if power then Some (Flow.default_power_limit soc) else None)
            ()
        in
        let strats =
          Soctest_portfolio.Strategy.default ?kinds:(parse_kinds strategies)
            ~eval:(Engine.evaluator engine)
            ~pareto:
              (Engine.pareto engine ~wmax:(Optimizer.wmax_of prepared))
            prepared ~tam_width:width ~constraints
        in
        if strats = [] then
          failwith
            "no strategies to race (note: exact-bnb is gated to SOCs with \
             at most 12 cores)";
        let jobs = if jobs <= 0 then None else Some jobs in
        let r =
          Soctest_portfolio.Portfolio.run ?jobs ?deadline_ms:deadline strats
        in
        Printf.printf "SOC %s at W=%d: raced %d strategies on %d domain(s)\n"
          soc.Soc_def.name width (List.length strats)
          r.Soctest_portfolio.Portfolio.jobs;
        Printf.printf "winner: %s -> testing time %d cycles\n"
          r.Soctest_portfolio.Portfolio.winner_name
          r.Soctest_portfolio.Portfolio.winner
            .Soctest_portfolio.Strategy.testing_time;
        List.iter
          (fun (id, w) ->
            Printf.printf "  core %2d (%s): width %d\n" id
              (Soc_def.core soc id).Core_def.name w)
          r.Soctest_portfolio.Portfolio.winner.Soctest_portfolio.Strategy
            .widths;
        print_string
          (Soctest_portfolio.Telemetry.summary_table r);
        write_csv csv (Soctest_portfolio.Telemetry.csv r);
        (match json with
        | None -> ()
        | Some path ->
          write_string_to_file path
            (Soctest_portfolio.Telemetry.json r);
          Printf.printf "(json written to %s)\n" path);
        match save with
        | None -> ()
        | Some path ->
          Soctest_tam.Schedule_io.to_file path
            r.Soctest_portfolio.Portfolio.winner
              .Soctest_portfolio.Strategy.schedule;
          Printf.printf "schedule saved to %s\n" path)
  in
  Cmd.v
    (Cmd.info "portfolio"
       ~doc:
         "Race the optimizer parameter grid, annealing restarts, polish, \
          the baselines, the rectangle-bin-packing family and the exact \
          branch-and-bound concurrently across OCaml domains; the winner is \
          selected deterministically (best makespan, ties by registration \
          order — never by completion order).")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ width_arg ~default:32 $ jobs
       $ deadline $ strategies $ list_strategies $ preempt $ power
       $ csv_arg $ json $ save $ trace_arg $ metrics_arg
       $ obs_summary_arg))

(* ------------------------------------------------------------------ *)
(* utility commands *)

let soc_info_cmd =
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOC" ~doc:"Benchmark name or .soc file.")
  in
  let run spec =
    wrap (fun () ->
        let soc = load_soc spec in
        Format.printf "%a@." Soc_def.pp_summary soc;
        Format.printf "total test data: %d bits@."
          (Soc_def.total_test_data_bits soc);
        List.iter
          (fun (p, c) -> Format.printf "hierarchy: core %d contains %d@." p c)
          soc.Soc_def.hierarchy;
        List.iter
          (fun (e, ids) ->
            Format.printf "BIST engine %d shared by cores %s@." e
              (String.concat ", " (List.map string_of_int ids)))
          (Soc_def.bist_groups soc))
  in
  Cmd.v
    (Cmd.info "soc-info" ~doc:"Summarize an SOC description.")
    Term.(ret (const run $ spec))

let export_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: <soc>.soc in the current directory).")
  in
  let run soc_name out =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let path =
          match out with
          | Some p -> p
          | None -> soc.Soc_def.name ^ ".soc"
        in
        Soctest_soc.Soc_writer.to_file path soc;
        Printf.printf "wrote %s (%d cores)\n" path (Soc_def.core_count soc))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write a benchmark SOC out in the .soc text format.")
    Term.(ret (const run $ soc_arg ~default:"d695" $ out))

let schedule_cmd =
  let preempt =
    Arg.(
      value & opt int 0
      & info [ "preempt" ] ~docv:"N"
          ~doc:"Allow N preemptions on the larger cores.")
  in
  let power =
    Arg.(
      value & flag
      & info [ "power" ]
          ~doc:"Apply the default power limit (1.5x the largest core).")
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Save the schedule in the textual schedule format.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Search the full parameter grid, but stop after $(docv) \
             milliseconds of wall clock and keep the best schedule found \
             so far (at least one grid point is always evaluated).")
  in
  let run soc width preempt power gantt save budget_ms store trace metrics
      obs_summary =
    wrap (fun () ->
        with_obs ~trace ~metrics ~summary:obs_summary @@ fun () ->
        let soc = load_soc soc in
        let max_preempts =
          if preempt > 0 then Flow.preemption_budget soc ~limit:preempt
          else []
        in
        let constraints =
          Constraint_def.of_soc soc ~max_preemptions:max_preempts
            ?power_limit:
              (if power then Some (Flow.default_power_limit soc) else None)
            ()
        in
        let engine = Engine.create ?store:(open_store store) () in
        let r, budget_note =
          match budget_ms with
          | None -> (Flow.solve ~engine (Flow.spec ~constraints soc ~tam_width:width), None)
          | Some ms ->
            let o =
              Engine.solve engine
                (Engine.request ~grid:Engine.default_grid
                   ~budget:(Budget.create ~deadline_ms:ms ()) soc
                   ~tam_width:width ~constraints ())
            in
            let note =
              match o.Engine.status with
              | Engine.Deadline ->
                Printf.sprintf
                  "budget expired: kept best of %d grid evaluation(s)"
                  o.Engine.evaluations
              | Engine.Complete ->
                Printf.sprintf "grid complete: %d evaluation(s)"
                  o.Engine.evaluations
            in
            (o.Engine.result, Some note)
        in
        Printf.printf "SOC %s at W=%d: testing time %d cycles\n"
          soc.Soc_def.name width r.Optimizer.testing_time;
        let lb =
          Soctest_core.Lower_bound.compute_constrained
            (Engine.prepare engine soc) ~tam_width:width ~constraints
        in
        Printf.printf "lower bound %d cycles, gap %.1f%%\n" lb
          (if lb > 0 then
             100.
             *. float_of_int (r.Optimizer.testing_time - lb)
             /. float_of_int lb
           else 0.);
        Option.iter (Printf.printf "(%s)\n") budget_note;
        (match Engine.store engine with
        | None -> ()
        | Some s ->
          let ss = Engine.store_stats engine in
          Printf.printf
            "(store %s: %d disk hit(s), %d solve(s) written, %d entries)\n"
            (Store.path s) ss.Engine.hits ss.Engine.misses (Store.length s));
        List.iter
          (fun (id, w) ->
            Printf.printf "  core %2d (%s): width %d%s\n" id
              (Soc_def.core soc id).Core_def.name w
              (match List.assoc_opt id r.Optimizer.preemptions with
              | Some p -> Printf.sprintf ", %d preemption(s)" p
              | None -> ""))
          r.Optimizer.widths;
        if gantt then begin
          print_string (Soctest_tam.Gantt.render r.Optimizer.schedule);
          print_string
            (Soctest_tam.Gantt.legend r.Optimizer.schedule (fun id ->
                 (Soc_def.core soc id).Core_def.name))
        end;
        match save with
        | None -> ()
        | Some path ->
          Soctest_tam.Schedule_io.to_file path r.Optimizer.schedule;
          Printf.printf "schedule saved to %s\n" path)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Co-optimize and schedule one SOC.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ width_arg ~default:32
       $ preempt $ power $ gantt $ save $ budget_ms $ store_arg $ trace_arg
       $ metrics_arg $ obs_summary_arg))

let validate_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCHEDULE" ~doc:"Schedule file to validate.")
  in
  let power =
    Arg.(
      value & flag
      & info [ "power" ] ~doc:"Also check the default power limit.")
  in
  let run soc_name file power =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let sched =
          try Soctest_tam.Schedule_io.of_file file
          with Soctest_tam.Schedule_io.Parse_error e ->
            failwith
              (Format.asprintf "%a" Soctest_tam.Schedule_io.pp_error e)
        in
        let constraints =
          Constraint_def.of_soc soc
            ?power_limit:
              (if power then Some (Flow.default_power_limit soc) else None)
            ()
        in
        match
          Soctest_constraints.Conflict.validate soc constraints sched
        with
        | [] ->
          Printf.printf
            "%s: valid schedule for %s (W=%d, makespan %d, utilization %.1f%%)\n"
            file soc.Soc_def.name sched.Soctest_tam.Schedule.tam_width
            (Soctest_tam.Schedule.makespan sched)
            (100. *. Soctest_tam.Schedule.utilization sched)
        | violations ->
          (* diagnostics belong on stderr: stdout stays machine-readable
             and the exit code already signals failure *)
          List.iter
            (fun v ->
              Format.eprintf "%s: %a@." file
                Soctest_constraints.Conflict.pp_violation v)
            violations;
          failwith
            (Printf.sprintf "%d violation(s)" (List.length violations)))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Re-validate a saved schedule against an SOC's constraints.")
    Term.(ret (const run $ soc_arg ~default:"d695" $ file $ power))

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCHEDULE" ~doc:"Schedule file to audit.")
  in
  let power =
    Arg.(
      value & flag
      & info [ "power" ] ~doc:"Also audit against the default power limit.")
  in
  let power_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "power-limit" ] ~docv:"N"
          ~doc:
            "Audit against an explicit power limit of $(docv) (overrides \
             $(b,--power)'s derived default).")
  in
  let preempt =
    Arg.(
      value & opt int (-1)
      & info [ "preempt" ] ~docv:"N"
          ~doc:
            "Audit with a budget of N preemptions on the larger cores \
             (matching `schedule --preempt N`). N=0 forbids preemption on \
             those cores; negative (the default) leaves it unlimited.")
  in
  let wmax =
    Arg.(
      value & opt int 64
      & info [ "wmax" ] ~docv:"W"
          ~doc:
            "Per-core TAM width cap the Pareto staircases are re-derived \
             at; must match the wmax the schedule was solved with.")
  in
  let partial =
    Arg.(
      value & flag
      & info [ "partial" ]
          ~doc:
            "Allow schedules that do not cover every SOC core (skip the \
             completeness check).")
  in
  let run soc_name file power power_limit preempt wmax partial =
    wrap (fun () ->
        let soc = load_soc soc_name in
        let sched =
          try Soctest_tam.Schedule_io.of_file file
          with Soctest_tam.Schedule_io.Parse_error e ->
            failwith
              (Format.asprintf "%a" Soctest_tam.Schedule_io.pp_error e)
        in
        let max_preempts =
          if preempt >= 0 then Flow.preemption_budget soc ~limit:preempt
          else []
        in
        let power_limit =
          match power_limit with
          | Some _ as explicit -> explicit
          | None -> if power then Some (Flow.default_power_limit soc) else None
        in
        let constraints =
          Constraint_def.of_soc soc ~max_preemptions:max_preempts
            ?power_limit ()
        in
        let spec =
          Soctest_check.Audit.spec ~wmax ~require_complete:(not partial)
            constraints
        in
        let report = Soctest_check.Audit.run soc spec sched in
        if Soctest_check.Audit.ok report then
          Printf.printf
            "%s: audit clean for %s (W=%d, makespan %d, %d checks over %d \
             slices)\n"
            file soc.Soc_def.name sched.Soctest_tam.Schedule.tam_width
            report.Soctest_check.Audit.makespan
            report.Soctest_check.Audit.checks_run
            report.Soctest_check.Audit.slices_audited
        else begin
          List.iter
            (fun v ->
              Format.eprintf "%s: %a@." file Soctest_check.Audit.pp_violation
                v)
            report.Soctest_check.Audit.violations;
          failwith
            (Printf.sprintf "%d violation(s)"
               (List.length report.Soctest_check.Audit.violations))
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Audit a saved schedule from first principles: wire occupancy, \
          width discipline, Pareto consistency, time accounting, \
          constraints and tester-image totals.")
    Term.(
      ret
        (const run $ soc_arg ~default:"d695" $ file $ power $ power_limit
       $ preempt $ wmax $ partial))

(* ------------------------------------------------------------------ *)
(* serve: the concurrent scheduling service *)

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* Structured-logging flags of serve. *)

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured JSON log lines at $(docv) (debug, info, warn, \
           error) and above; without this flag logging stays a no-op.")

let log_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-file" ] ~docv:"FILE"
        ~doc:
          "Append log lines to $(docv) instead of stderr (implies \
           $(b,--log-level) info when that flag is absent).")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Dump the flight record of any request slower than $(docv) \
           milliseconds end-to-end through the structured log.")

let setup_logging ~level ~file =
  match (level, file) with
  | None, None -> ()
  | _ ->
    let level =
      match level with
      | None -> Log.Info
      | Some s -> (
        match Log.level_of_string s with
        | Some l -> l
        | None ->
          failwith
            (Printf.sprintf
               "--log-level %s: expected debug, info, warn or error" s))
    in
    Log.enable ~level ?file ()

let serve_cmd =
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to listen on (loopback only). 0 picks an ephemeral one.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains solving admitted requests (0 = one less than \
             the recommended domain count, at least 1).")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Maximum admitted-but-unfinished requests; beyond it the \
             server answers 429 with Retry-After instead of queueing.")
  in
  let max_body =
    Arg.(
      value
      & opt int (1024 * 1024)
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Request body cap; larger payloads are answered 413.")
  in
  let idle_timeout_ms =
    Arg.(
      value & opt float 5_000.
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Close a kept-alive connection after $(docv) without a new \
             request.")
  in
  let max_connections =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Open-connection cap; beyond it accepts are answered 503.")
  in
  let max_conn_requests =
    Arg.(
      value & opt int 1000
      & info [ "max-conn-requests" ] ~docv:"N"
          ~doc:
            "Requests served per connection before it is closed \
             (Connection: close on the last response).")
  in
  let max_jobs =
    Arg.(
      value & opt int 256
      & info [ "max-jobs" ] ~docv:"N"
          ~doc:"Async jobs retained at once; beyond it submissions get 503.")
  in
  let job_ttl_ms =
    Arg.(
      value & opt float 300_000.
      & info [ "job-ttl-ms" ] ~docv:"MS"
          ~doc:"Retention of a finished async job's result before eviction.")
  in
  let run port workers queue_depth max_body idle_timeout_ms max_connections
      max_conn_requests max_jobs job_ttl_ms store log_level log_file slow_ms
      =
    wrap (fun () ->
        let workers = if workers <= 0 then default_workers () else workers in
        setup_logging ~level:log_level ~file:log_file;
        (* Server.create enables metrics-only Obs recording itself *)
        let cfg =
          Server.config ~port ~workers ~queue_depth ~max_body
            ~idle_timeout_ms ~max_connections ~max_conn_requests
            ~job_capacity:max_jobs ~job_ttl_ms ?slow_ms ()
        in
        let engine = Engine.create ?store:(open_store store) () in
        let server = Server.create ~engine cfg in
        let stop _ = Server.stop server in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        (* a client hanging up mid-response must not kill the daemon *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf
          "soctest serve: listening on 127.0.0.1:%d (%d workers, queue \
           depth %d)\n\
           endpoints: POST /v1/solve[?mode=async], GET|DELETE \
           /v1/jobs/<id>, POST /v1/check, GET /metrics, GET \
           /v1/debug/requests, GET /healthz\n\
           %!"
          (Server.port server) workers queue_depth;
        (match Engine.store engine with
        | None -> ()
        | Some s ->
          Printf.printf "store: %s (%d warm entries)\n%!" (Store.path s)
            (Store.length s));
        Server.run server;
        print_endline "soctest serve: queue drained, shut down cleanly")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling service: an HTTP/1.1 keep-alive JSON daemon \
          with bounded, deadline-aware (EDF) admission, per-request \
          deadline budgets, async jobs ($(b,POST /v1/solve?mode=async) \
          then $(b,GET /v1/jobs/<id>)), shared solver caches and audited \
          responses. $(b,--store) layers a persistent result store under \
          the in-memory caches so restarts stay warm and several daemons \
          can share solves. Every response carries an $(b,x-request-id); \
          $(b,GET /metrics) exposes Prometheus text format and $(b,GET \
          /v1/debug/requests) the flight recorder. SIGINT/SIGTERM drain \
          and exit.")
    Term.(
      ret
        (const run $ port $ workers $ queue_depth $ max_body
       $ idle_timeout_ms $ max_connections $ max_conn_requests
       $ max_jobs $ job_ttl_ms $ store_arg $ log_level_arg $ log_file_arg
       $ slow_ms_arg))

(* ------------------------------------------------------------------ *)
(* jobs: the async solve lifecycle from the command line              *)
(* ------------------------------------------------------------------ *)

let jobs_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,soctest serve).")
  in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOB" ~doc:"Job id (printed by $(b,jobs submit)).")
  in
  let with_client port f =
    let c = Serve_client.connect ~port () in
    Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> f c)
  in
  (* print the JSON document; a 4xx/5xx still fails the command so
     scripts can branch on the exit code *)
  let finish (r : Serve_client.response) =
    print_endline r.Serve_client.body;
    if r.Serve_client.status >= 400 then
      failwith (Printf.sprintf "http %d" r.Serve_client.status)
  in
  let submit =
    let budget =
      Arg.(
        value
        & opt (some float) None
        & info [ "budget-ms" ] ~docv:"MS"
            ~doc:"Attach a deadline budget of $(docv) to the solve.")
    in
    let await_flag =
      Arg.(
        value & flag
        & info [ "await" ]
            ~doc:
              "Wait for the job to finish and print its result instead \
               of returning right after the 202.")
    in
    let run soc_name width port budget await_flag =
      wrap (fun () ->
          let soc = load_soc soc_name in
          let fields =
            [
              ( "soc_text",
                Json.String (Soctest_soc.Soc_writer.to_string soc) );
              ("width", Json.Int width);
            ]
            @
            match budget with
            | None -> []
            | Some ms -> [ ("budget_ms", Json.Float ms) ]
          in
          let body = Json.to_string (Json.Obj fields) in
          with_client port (fun c ->
              let id = Serve_client.solve_async c ~body in
              if not await_flag then
                Printf.printf "job %s accepted (GET /v1/jobs/%s)\n" id id
              else begin
                Printf.printf "job %s accepted, awaiting result...\n%!" id;
                finish (Serve_client.await_job c id)
              end))
    in
    Cmd.v
      (Cmd.info "submit"
         ~doc:
           "POST the solve as an async job (202) and print its id — or \
            its final result with $(b,--await).")
      Term.(
        ret
          (const run $ soc_arg ~default:"d695" $ width_arg ~default:32
         $ port_arg $ budget $ await_flag))
  in
  let simple name doc f =
    let run port id = wrap (fun () -> with_client port (fun c -> f c id)) in
    Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ port_arg $ id_arg))
  in
  let status =
    simple "status"
      "GET /v1/jobs/<id>: a status document while queued/running, the \
       replayed solve response once done."
      (fun c id -> finish (Serve_client.job_status c id))
  in
  let cancel =
    simple "cancel"
      "DELETE /v1/jobs/<id>: cancel a queued job immediately, or ask a \
       running one to stop at its next budget poll."
      (fun c id -> finish (Serve_client.cancel_job c id))
  in
  let await =
    simple "await"
      "Poll until the job leaves queued/running and print the final \
       document."
      (fun c id -> finish (Serve_client.await_job c id))
  in
  Cmd.group
    (Cmd.info "jobs"
       ~doc:
         "Drive the serve daemon's async job API: submit a solve, poll \
          its status, cancel it, or await its result.")
    [ submit; status; cancel; await ]

let store_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"The store file.")
  in
  let stats =
    let run file =
      wrap (fun () ->
          let r = Store.verify file in
          Printf.printf "store %s:\n" file;
          Printf.printf "  entries      : %d\n" r.Store.v_entries;
          Printf.printf "  records      : %d (%d superseded)\n"
            r.Store.v_records
            (r.Store.v_records - r.Store.v_entries);
          Printf.printf "  corrupt      : %d record(s) skipped\n"
            r.Store.v_corrupt;
          Printf.printf "  torn tail    : %d byte(s)\n" r.Store.v_torn_bytes;
          Printf.printf "  file size    : %d byte(s)\n" r.Store.v_file_bytes)
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Scan a store file and print record/entry/corruption counts.")
      Term.(ret (const run $ file_arg))
  in
  let verify =
    let run file =
      wrap (fun () ->
          let r = Store.verify file in
          let bad = ref 0 in
          let s = Store.open_ ~readonly:true file in
          Fun.protect
            ~finally:(fun () -> Store.close s)
            (fun () ->
              Store.iter s (fun ~key ~payload ->
                  match Engine.result_of_payload payload with
                  | Ok _ -> ()
                  | Error e ->
                    incr bad;
                    Printf.printf "undecodable entry %s: %s\n" key e));
          Printf.printf
            "verified %s: %d live entries, %d corrupt record(s), %d torn \
             byte(s), %d undecodable payload(s)\n"
            file r.Store.v_entries r.Store.v_corrupt r.Store.v_torn_bytes !bad;
          if r.Store.v_corrupt > 0 || r.Store.v_torn_bytes > 0 || !bad > 0
          then failwith "store has damage (recoverable; see above)")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Deep-check a store file: CRC every record and decode every \
            live payload; non-zero exit when anything is damaged.")
      Term.(ret (const run $ file_arg))
  in
  let compact =
    let run file =
      wrap (fun () ->
          let s = Store.open_ file in
          Fun.protect
            ~finally:(fun () -> Store.close s)
            (fun () ->
              let reclaimed = Store.compact s in
              Printf.printf "compacted %s: %d byte(s) reclaimed, %d entries\n"
                file reclaimed (Store.length s)))
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a store file keeping only the latest intact record \
            per key, dropping superseded, corrupt and torn bytes.")
      Term.(ret (const run $ file_arg))
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain persistent result stores (see $(b,--store) \
          on $(b,schedule) and $(b,serve)).")
    [ stats; verify; compact ]

let debug_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port of a running $(b,soctest serve) daemon.")
  in
  let limit_arg =
    Arg.(
      value & opt int 32
      & info [ "limit" ] ~docv:"N"
          ~doc:"Newest flight records to fetch (default 32).")
  in
  let requests =
    let run port limit =
      wrap (fun () ->
          let j =
            Serve_client.json_body
              (Serve_client.get ~port
                 (Printf.sprintf "/v1/debug/requests?limit=%d" limit))
          in
          let records =
            match Json.member "requests" j with
            | Some (Json.List rs) -> rs
            | _ -> failwith "debug requests: malformed response"
          in
          if records = [] then print_endline "flight recorder is empty"
          else
            List.iter
              (fun r ->
                let str k =
                  match Json.member k r with
                  | Some (Json.String s) -> s
                  | _ -> "?"
                in
                let num k =
                  match Json.member k r with
                  | Some (Json.Float f) -> f
                  | Some (Json.Int i) -> float_of_int i
                  | _ -> Float.nan
                in
                let flag k =
                  match Json.member k r with
                  | Some (Json.Bool b) -> b
                  | _ -> false
                in
                Printf.printf "%s %s %.0f %8.2f ms  tier=%s%s%s%s\n"
                  (str "id") (str "endpoint") (num "status") (num "total_ms")
                  (str "tier")
                  (if flag "slow" then " slow" else "")
                  (if flag "store_rejected" then " store-reject" else "")
                  (if flag "healed" then " healed" else "");
                match Json.member "phases" r with
                | Some (Json.Obj phases) ->
                  List.iter
                    (fun (name, v) ->
                      match v with
                      | Json.Float f ->
                        Printf.printf "    %-12s %8.3f ms\n" name f
                      | _ -> ())
                    phases
                | _ -> ())
              records)
    in
    Cmd.v
      (Cmd.info "requests"
         ~doc:
           "Fetch $(b,GET /v1/debug/requests) from a running daemon and \
            print the flight recorder: the last completed requests with \
            their per-phase timing decomposition, cache tier and \
            store-audit flags, newest first.")
      Term.(ret (const run $ port_arg $ limit_arg))
  in
  Cmd.group
    (Cmd.info "debug"
       ~doc:"Interrogate a running $(b,soctest serve) daemon.")
    [ requests ]

let synth_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"PRNG seed (generation is fully deterministic given it).")
  in
  let cores =
    Arg.(value & opt int 6 & info [ "cores" ] ~docv:"N" ~doc:"Core count.")
  in
  let data_bits =
    Arg.(
      value & opt int 2_000_000
      & info [ "data-bits" ] ~docv:"BITS"
          ~doc:"Aggregate test data volume target.")
  in
  let big =
    Arg.(
      value & opt float 0.25
      & info [ "big-fraction" ] ~docv:"F"
          ~doc:"Fraction of cores drawn from the large regime.")
  in
  let comb =
    Arg.(
      value & opt float 0.25
      & info [ "comb-fraction" ] ~docv:"F"
          ~doc:"Fraction of cores with no internal scan.")
  in
  let hierarchy =
    Arg.(
      value & opt int 0
      & info [ "hierarchy" ] ~docv:"N" ~doc:"Parent/child pairs to create.")
  in
  let bist =
    Arg.(
      value & opt int 0
      & info [ "bist" ] ~docv:"N" ~doc:"Shared BIST engines to scatter.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: <name>.soc in the current directory).")
  in
  let run seed cores data_bits big comb hierarchy bist out =
    wrap (fun () ->
        let name = Printf.sprintf "synth-s%d-c%d" seed cores in
        let soc =
          Soctest_soc.Synth.generate
            {
              Soctest_soc.Synth.name;
              seed = Int64.of_int seed;
              core_count = cores;
              target_data_bits = data_bits;
              big_core_fraction = big;
              combinational_fraction = comb;
              hierarchy_pairs = hierarchy;
              bist_engines = bist;
            }
        in
        let path = match out with Some p -> p | None -> name ^ ".soc" in
        Soctest_soc.Soc_writer.to_file path soc;
        Printf.printf "wrote %s (%d cores, %d bits)\n" path
          (Soc_def.core_count soc)
          (Soc_def.total_test_data_bits soc))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Generate a deterministic synthetic SOC (.soc file) — the \
          small-SOC instances of the pack benchmark.")
    Term.(
      ret
        (const run $ seed $ cores $ data_bits $ big $ comb $ hierarchy
       $ bist $ out))

let pack_bench_cmd =
  let preempt =
    Arg.(
      value & opt int 0
      & info [ "preempt" ] ~docv:"N"
          ~doc:"Allow N preemptions on the larger cores.")
  in
  let power =
    Arg.(
      value & flag
      & info [ "power" ]
          ~doc:"Apply the default power limit (1.5x the largest core).")
  in
  let node_limit =
    Arg.(
      value & opt int 2_000_000
      & info [ "node-limit" ] ~docv:"N" ~doc:"Branch-and-bound node cap.")
  in
  let bnb_max_cores =
    Arg.(
      value & opt int 12
      & info [ "bnb-max-cores" ] ~docv:"N"
          ~doc:"Skip the exact solver above this core count.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSON record to $(docv) instead of stdout.")
  in
  let run soc width power preempt node_limit bnb_max_cores out =
    wrap (fun () ->
        let soc = load_soc soc in
        let max_preempts =
          if preempt > 0 then Flow.preemption_budget soc ~limit:preempt
          else []
        in
        let constraints =
          Constraint_def.of_soc soc ~max_preemptions:max_preempts
            ?power_limit:
              (if power then Some (Flow.default_power_limit soc) else None)
            ()
        in
        let engine = Engine.create () in
        let prepared = Engine.prepare engine soc in
        let wmax = Optimizer.wmax_of prepared in
        let lb =
          Soctest_core.Lower_bound.compute_constrained prepared
            ~tam_width:width ~constraints
        in
        (* every schedule in the record has passed the full audit *)
        let audit_spec =
          Soctest_check.Audit.spec ~wmax ~expect_tam_width:width
            ~pareto:(Engine.pareto engine ~wmax)
            constraints
        in
        let audit name sched =
          let rep = Soctest_check.Audit.run soc audit_spec sched in
          if not (Soctest_check.Audit.ok rep) then
            failwith
              (Format.asprintf "%s: audit failed: %a" name
                 Soctest_check.Audit.pp_report rep)
        in
        let heuristic =
          Flow.solve ~engine (Flow.spec ~constraints soc ~tam_width:width)
        in
        audit "heuristic" heuristic.Optimizer.schedule;
        let rp =
          Soctest_pack.Rectpack.schedule ~order:Soctest_pack.Rectpack.Plain
            prepared ~tam_width:width ~constraints
        in
        audit "rectpack" rp.Soctest_pack.Rectpack.schedule;
        let rd =
          Soctest_pack.Rectpack.schedule
            ~order:Soctest_pack.Rectpack.Diagonal prepared ~tam_width:width
            ~constraints
        in
        audit "rectpack-diagonal" rd.Soctest_pack.Rectpack.schedule;
        let bnb =
          if Soc_def.core_count soc <= bnb_max_cores then begin
            let o =
              Soctest_pack.Bnb.solve ~node_limit prepared ~tam_width:width
                ~constraints
            in
            audit "exact-bnb" o.Soctest_pack.Bnb.schedule;
            Some o
          end
          else None
        in
        let exact_time =
          match bnb with
          | Some o when o.Soctest_pack.Bnb.optimal ->
            Some o.Soctest_pack.Bnb.testing_time
          | _ -> None
        in
        let pct over t =
          Json.Float
            (if over > 0 then 100. *. float_of_int (t - over) /. float_of_int over
             else 0.)
        in
        let entry ?(extra = []) t =
          Json.Obj
            ([ ("time", Json.Int t); ("gap_vs_lb_pct", pct lb t) ]
            @ (match exact_time with
              | Some e -> [ ("gap_to_exact_pct", pct e t) ]
              | None -> [])
            @ extra)
        in
        let times =
          [
            ("heuristic", heuristic.Optimizer.testing_time);
            ("rectpack", rp.Soctest_pack.Rectpack.testing_time);
            ("rectpack-diagonal", rd.Soctest_pack.Rectpack.testing_time);
          ]
          @ (match bnb with
            | Some o -> [ ("exact-bnb", o.Soctest_pack.Bnb.testing_time) ]
            | None -> [])
        in
        let winner =
          fst
            (List.fold_left
               (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
               ("heuristic", max_int) times)
        in
        let record =
          Json.Obj
            [
              ("soc", Json.String soc.Soc_def.name);
              ("cores", Json.Int (Soc_def.core_count soc));
              ("tam_width", Json.Int width);
              ("lower_bound", Json.Int lb);
              ( "strategies",
                Json.Obj
                  ([
                     ("heuristic", entry heuristic.Optimizer.testing_time);
                     ("rectpack", entry rp.Soctest_pack.Rectpack.testing_time);
                     ( "rectpack-diagonal",
                       entry rd.Soctest_pack.Rectpack.testing_time );
                   ]
                  @
                  match bnb with
                  | Some o ->
                    [
                      ( "exact-bnb",
                        entry
                          ~extra:
                            [
                              ("optimal", Json.Bool o.Soctest_pack.Bnb.optimal);
                              ("nodes", Json.Int o.Soctest_pack.Bnb.nodes);
                            ]
                          o.Soctest_pack.Bnb.testing_time );
                    ]
                  | None -> []) );
              ("winner", Json.String winner);
              ("audited", Json.Bool true);
            ]
        in
        let rendered = Json.to_string record in
        match out with
        | None -> print_endline rendered
        | Some path ->
          write_string_to_file path (rendered ^ "\n");
          Printf.printf "(json written to %s)\n" path)
  in
  Cmd.v
    (Cmd.info "pack-bench"
       ~doc:
         "Run the DAC'02 heuristic, both rectangle packers and (on small \
          SOCs) the exact branch-and-bound on one instance; audit every \
          schedule and emit a JSON record with per-strategy times, \
          lower-bound and gap-to-exact figures.")
    Term.(
      ret
        (const run $ soc_arg ~default:"mini4" $ width_arg ~default:16
       $ power $ preempt $ node_limit $ bnb_max_cores $ out))

let main_cmd =
  let doc =
    "wrapper/TAM co-optimization, constraint-driven test scheduling and \
     tester data volume reduction for SOCs (DAC 2002 reproduction)"
  in
  Cmd.group
    (Cmd.info "soctest" ~version:"1.0.0" ~doc)
    [
      table1_cmd; table2_cmd; fig1_cmd; fig2_cmd; fig9_cmd; ablate_cmd;
      all_cmd; soc_info_cmd; schedule_cmd; export_cmd; extras_cmd; verilog_cmd;
      validate_cmd; check_cmd; stil_cmd; sweep_cmd; portfolio_cmd;
      synth_cmd; pack_bench_cmd;
      serve_cmd; jobs_cmd; debug_cmd; store_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
