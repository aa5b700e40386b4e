module Schedule = Soctest_tam.Schedule
module Wire_alloc = Soctest_tam.Wire_alloc
module Obs = Soctest_obs.Obs

type t = {
  tam_width : int;
  depth : int;
  volume : int;
  useful : int;
  padding : int;
  per_wire_busy : int array;
}

let of_allocations sched allocations =
  Obs.with_span ~cat:"phase" "tester.image" @@ fun () ->
  let tam_width = sched.Schedule.tam_width in
  let depth = Schedule.makespan sched in
  let per_wire_busy = Array.make tam_width 0 in
  List.iter
    (fun { Wire_alloc.slice; wires } ->
      let span = slice.Schedule.stop - slice.Schedule.start in
      List.iter
        (fun w -> per_wire_busy.(w) <- per_wire_busy.(w) + span)
        wires)
    allocations;
  let useful = Array.fold_left ( + ) 0 per_wire_busy in
  let volume = tam_width * depth in
  { tam_width; depth; volume; useful; padding = volume - useful;
    per_wire_busy }

let of_schedule sched = of_allocations sched (Wire_alloc.allocate sched)

let utilization t =
  if t.volume = 0 then 0.
  else float_of_int t.useful /. float_of_int t.volume

type compression_report = {
  care_density : float;
  raw_stimulus_bits : int;
  compressed_bits : int;
  ratio : float;
  per_core : (int * Compress.choice) list;
}

let compress_soc ?(care_density = 0.05) (soc : Soctest_soc.Soc_def.t) =
  Obs.with_span ~cat:"phase" "tester.compress"
    ~args:[ ("soc", soc.Soctest_soc.Soc_def.name) ]
  @@ fun () ->
  let per_core =
    Array.to_list soc.Soctest_soc.Soc_def.cores
    |> List.map (fun core ->
           let patterns = Pattern_gen.generate ~care_density core in
           let stream = Pattern_gen.stimulus_stream patterns in
           (core.Soctest_soc.Core_def.id, Compress.best stream,
            Bitstream.length stream))
  in
  let raw = List.fold_left (fun a (_, _, len) -> a + len) 0 per_core in
  let compressed =
    List.fold_left (fun a (_, c, _) -> a + c.Compress.bits) 0 per_core
  in
  {
    care_density;
    raw_stimulus_bits = raw;
    compressed_bits = compressed;
    ratio = float_of_int raw /. float_of_int compressed;
    per_core = List.map (fun (id, c, _) -> (id, c)) per_core;
  }
