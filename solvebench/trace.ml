module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock

type span = {
  id : int;
  name : string;
  layer : string;
  rid : int;
  parent : int;
  start_us : float;
  stop_us : float;
  words : float;
}

let recorded = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  next_id := 0

let record ?(parent = -1) ~rid ~layer name f =
  let id = !next_id in
  incr next_id;
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_us () in
  let r = f () in
  let t1 = Clock.now_us () in
  let w1 = Gc.minor_words () in
  recorded :=
    { id; name; layer; rid; parent; start_us = t0; stop_us = t1; words = w1 -. w0 }
    :: !recorded;
  (r, id)

let spans () = List.rev !recorded

let self spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d, w = Option.value (Hashtbl.find_opt kids s.parent) ~default:(0., 0.) in
        Hashtbl.replace kids s.parent (d +. (s.stop_us -. s.start_us), w +. s.words)
      end)
    spans;
  List.map
    (fun s ->
      let d, w = Option.value (Hashtbl.find_opt kids s.id) ~default:(0., 0.) in
      (s, Float.max 0. ((s.stop_us -. s.start_us -. d) /. 1000.), Float.max 0. (s.words -. w)))
    spans

let write_chrome path spans =
  let origin = match spans with [] -> 0. | s :: _ -> s.start_us in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String s.layer);
        ("ph", Json.String "X");
        ("ts", Json.Float (s.start_us -. origin));
        ("dur", Json.Float (s.stop_us -. s.start_us));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("rid", Json.Int s.rid);
              ("minor_words", Json.Float s.words);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc
    (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]))
