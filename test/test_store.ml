(* Tests for the persistent result store: the record format's crash
   recovery (torn tails, flipped bytes, duplicate keys), cross-handle
   visibility, compaction, and the engine's disk tier — a warm store
   must serve bit-identical results and the audit gate must reject
   anything that does not survive re-verification. *)

module Store = Soctest_store.Store
module Engine = Soctest_engine.Engine
module O = Soctest_core.Optimizer
module C = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def
module IO = Soctest_tam.Schedule_io
module Obs = Soctest_obs.Obs

let un soc = C.unconstrained ~core_count:(Soc_def.core_count soc)

let with_store_file f =
  let path = Filename.temp_file "soctest-test" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Sys.remove path;
      f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* ---------------- the record format ---------------- *)

let test_roundtrip () =
  with_store_file @@ fun path ->
  let s = Store.open_ path in
  Store.add s ~key:"a" "alpha";
  Store.add s ~key:"b" (String.make 4096 'b');
  Alcotest.check_raises "empty key rejected"
    (Invalid_argument "Store.add: empty key") (fun () ->
      Store.add s ~key:"" "nope");
  Store.close s;
  let s = Store.open_ path in
  Alcotest.(check (option string)) "a" (Some "alpha") (Store.find s "a");
  Alcotest.(check (option string))
    "b" (Some (String.make 4096 'b')) (Store.find s "b");
  Alcotest.(check (option string)) "absent" None (Store.find s "nope");
  Alcotest.(check int) "two entries" 2 (Store.length s);
  Store.close s

let test_torn_tail_truncated () =
  with_store_file @@ fun path ->
  let s = Store.open_ path in
  Store.add s ~key:"keep-1" "payload one";
  Store.add s ~key:"keep-2" "payload two";
  Store.add s ~key:"torn" "this record will be cut mid-payload";
  Store.close s;
  let whole = read_file path in
  (* cut the last record mid-way: a crash between write and the final
     byte reaching the disk *)
  write_file path (String.sub whole 0 (String.length whole - 9));
  (* readonly open reports the tear but leaves the file alone *)
  let r = Store.verify path in
  Alcotest.(check int) "intact prefix survives" 2 r.Store.v_entries;
  Alcotest.(check bool) "tear reported" true (r.Store.v_torn_bytes > 0);
  Alcotest.(check int)
    "verify does not touch the file"
    (String.length whole - 9)
    (String.length (read_file path));
  (* writable open truncates the tear away and the store keeps working *)
  let s = Store.open_ path in
  Alcotest.(check int) "recovered entries" 2 (Store.length s);
  Alcotest.(check (option string))
    "prefix readable" (Some "payload one") (Store.find s "keep-1");
  Alcotest.(check (option string)) "torn record gone" None (Store.find s "torn");
  Store.add s ~key:"after" "appended after recovery";
  Store.close s;
  let r = Store.verify path in
  Alcotest.(check int) "tear gone after recovery" 0 r.Store.v_torn_bytes;
  Alcotest.(check int) "append after recovery" 3 r.Store.v_entries

let test_flipped_byte_skipped () =
  with_store_file @@ fun path ->
  let s = Store.open_ path in
  Store.add s ~key:"first" "payload-first";
  Store.add s ~key:"victim" "payload-victim";
  Store.add s ~key:"last" "payload-last";
  Store.close s;
  let whole = Bytes.of_string (read_file path) in
  (* flip one byte inside the middle record's payload; the CRC must
     catch it while the length fields keep the framing intact *)
  let victim_off =
    (* records are contiguous after the 10-byte magic; locate the
       victim's payload by searching for its bytes *)
    let s = Bytes.to_string whole in
    match String.index_opt s 'v' with
    | Some _ ->
      let rec find i =
        if i + 14 > String.length s then failwith "victim payload not found"
        else if String.sub s i 14 = "payload-victim" then i
        else find (i + 1)
      in
      find 10
    | None -> failwith "victim payload not found"
  in
  Bytes.set whole victim_off
    (Char.chr (Char.code (Bytes.get whole victim_off) lxor 0xff));
  write_file path (Bytes.to_string whole);
  let s = Store.open_ path in
  Alcotest.(check (option string))
    "record before the damage survives" (Some "payload-first")
    (Store.find s "first");
  Alcotest.(check (option string))
    "record after the damage survives" (Some "payload-last")
    (Store.find s "last");
  Alcotest.(check (option string))
    "damaged record is not served" None (Store.find s "victim");
  let stats = Store.stats s in
  Alcotest.(check int) "damage counted" 1 stats.Store.corrupt;
  (* the key can be rewritten and is then served again *)
  Store.add s ~key:"victim" "payload-victim-2";
  Alcotest.(check (option string))
    "overwrite heals" (Some "payload-victim-2") (Store.find s "victim");
  Store.close s

let test_duplicate_keys_last_wins () =
  with_store_file @@ fun path ->
  let s = Store.open_ path in
  for i = 1 to 5 do
    Store.add s ~key:"k" (Printf.sprintf "version-%d" i)
  done;
  Alcotest.(check (option string))
    "last write wins live" (Some "version-5") (Store.find s "k");
  Store.close s;
  let s = Store.open_ path in
  Alcotest.(check (option string))
    "last write wins after reopen" (Some "version-5") (Store.find s "k");
  Alcotest.(check int) "one live entry" 1 (Store.length s);
  Alcotest.(check int) "five records on disk" 5 (Store.stats s).Store.records;
  let reclaimed = Store.compact s in
  Alcotest.(check bool) "compaction reclaims" true (reclaimed > 0);
  Alcotest.(check (option string))
    "winner survives compaction" (Some "version-5") (Store.find s "k");
  Alcotest.(check int)
    "one record after compaction" 1 (Store.stats s).Store.records;
  Store.close s

let test_two_handles_share () =
  with_store_file @@ fun path ->
  let a = Store.open_ path in
  let b = Store.open_ path in
  Store.add a ~key:"from-a" "alpha";
  (* b's index predates the append; find must refresh and see it *)
  Alcotest.(check (option string))
    "b sees a's append" (Some "alpha") (Store.find b "from-a");
  Store.add b ~key:"from-b" "beta";
  Alcotest.(check (option string))
    "a sees b's append" (Some "beta") (Store.find a "from-b");
  Store.close a;
  Store.close b

let test_bad_magic_rejected () =
  with_store_file @@ fun path ->
  write_file path "not a store file at all";
  Alcotest.check_raises "bad magic raises"
    (Store.Corrupt_store
       (path ^ ": bad magic (not a soctest store, or truncated header)"))
    (fun () -> ignore (Store.open_ path))

let test_crc_reference_vector () =
  (* the IEEE 802.3 check value; pins the polynomial and bit order *)
  Alcotest.(check int)
    "crc32(\"123456789\")" 0xCBF43926
    (Store.crc32 "123456789")

(* Truncating a store at any byte offset keeps some intact prefix of
   the appended records and never makes open_ raise. *)
let prop_truncate_anywhere =
  QCheck.Test.make ~count:60 ~name:"recovery keeps an intact prefix"
    QCheck.(pair (int_range 0 300) (list_of_size Gen.(int_range 1 8) small_string))
    (fun (cut_back, payloads) ->
      with_store_file @@ fun path ->
      let s = Store.open_ path in
      List.iteri
        (fun i p -> Store.add s ~key:(Printf.sprintf "k%d" i) p)
        payloads;
      Store.close s;
      let whole = read_file path in
      let keep = max 10 (String.length whole - cut_back) in
      write_file path (String.sub whole 0 keep);
      let s = Store.open_ path in
      let n = Store.length s in
      (* every surviving entry is a prefix entry with its exact payload *)
      let ok = ref (n <= List.length payloads) in
      List.iteri
        (fun i p ->
          match Store.find s (Printf.sprintf "k%d" i) with
          | Some got -> ok := !ok && got = p
          | None -> ())
        payloads;
      Store.close s;
      !ok)

(* ---------------- the engine's disk tier ---------------- *)

let test_warm_store_bit_identical () =
  with_store_file @@ fun path ->
  let soc = Test_helpers.mini4 () in
  let req = Engine.request soc ~tam_width:8 ~constraints:(un soc) () in
  let solve_with_fresh_engine () =
    let store = Store.open_ path in
    let engine = Engine.create ~store () in
    let o = Engine.solve engine req in
    let stats = Engine.store_stats engine in
    Store.close store;
    (o, stats)
  in
  let cold, cold_stats = solve_with_fresh_engine () in
  Alcotest.(check bool)
    "cold run wrote through" true
    (cold_stats.Engine.misses >= 1);
  Alcotest.(check int) "cold run had no disk hits" 0 cold_stats.Engine.hits;
  let warm, warm_stats = solve_with_fresh_engine () in
  Alcotest.(check bool)
    "warm run served from disk" true
    (warm_stats.Engine.hits >= 1);
  Alcotest.(check int) "warm run solved nothing" 0 warm_stats.Engine.misses;
  Alcotest.(check bool)
    "warm evals counted as from-store" true
    (warm.Engine.stats.Engine.eval_from_store >= 1);
  Alcotest.(check int) "warm run computed nothing" 0
    warm.Engine.stats.Engine.eval_computed;
  Alcotest.(check string) "bit-for-bit same schedule"
    (IO.to_string cold.Engine.result.O.schedule)
    (IO.to_string warm.Engine.result.O.schedule);
  Alcotest.(check int) "same testing time" cold.Engine.result.O.testing_time
    warm.Engine.result.O.testing_time

let test_audit_gate_rejects_corrupt_payload () =
  with_store_file @@ fun path ->
  let soc = Test_helpers.mini4 () in
  let req = Engine.request soc ~tam_width:8 ~constraints:(un soc) () in
  (* seed the store with a legitimate solve *)
  let store = Store.open_ path in
  let engine = Engine.create ~store () in
  let good = Engine.solve engine req in
  Store.close store;
  (* poison every key: a decodable payload for the wrong request (a
     W=12 solve) plus plain garbage both have to be rejected *)
  let wrong =
    let e = Engine.create () in
    (Engine.solve e (Engine.request soc ~tam_width:12 ~constraints:(un soc) ()))
      .Engine.result
  in
  let store = Store.open_ path in
  let keys = ref [] in
  Store.iter store (fun ~key ~payload:_ -> keys := key :: !keys);
  List.iteri
    (fun i key ->
      if i mod 2 = 0 then Store.add store ~key (Engine.result_to_payload wrong)
      else Store.add store ~key "{ not a result payload")
    !keys;
  Store.close store;
  (* a fresh engine must reject every poisoned entry, re-solve, answer
     correctly, and heal the store by overwriting *)
  let store = Store.open_ path in
  let engine = Engine.create ~store () in
  let healed = Engine.solve engine req in
  let stats = Engine.store_stats engine in
  Alcotest.(check bool) "rejects counted" true
    (stats.Engine.audit_rejects >= 1);
  Alcotest.(check int) "nothing served from the poisoned store" 0
    stats.Engine.hits;
  Alcotest.(check string) "answer identical to the original solve"
    (IO.to_string good.Engine.result.O.schedule)
    (IO.to_string healed.Engine.result.O.schedule);
  Store.close store;
  (* ... and the overwrite healed it: next engine gets disk hits *)
  let store = Store.open_ path in
  let engine = Engine.create ~store () in
  let again = Engine.solve engine req in
  let stats = Engine.store_stats engine in
  Alcotest.(check bool) "healed store serves" true (stats.Engine.hits >= 1);
  Alcotest.(check int) "no rejects after healing" 0 stats.Engine.audit_rejects;
  Alcotest.(check string) "healed answer still identical"
    (IO.to_string good.Engine.result.O.schedule)
    (IO.to_string again.Engine.result.O.schedule);
  Store.close store

let test_payload_codec_roundtrip () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let o =
    Engine.solve engine
      (Engine.request soc ~tam_width:8 ~constraints:(un soc) ())
  in
  let r = o.Engine.result in
  match Engine.result_of_payload (Engine.result_to_payload r) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r' ->
    Alcotest.(check int) "testing time" r.O.testing_time r'.O.testing_time;
    Alcotest.(check bool) "widths" true (r.O.widths = r'.O.widths);
    Alcotest.(check bool) "preemptions" true
      (r.O.preemptions = r'.O.preemptions);
    Alcotest.(check bool) "params" true (r.O.params = r'.O.params);
    Alcotest.(check string) "schedule" (IO.to_string r.O.schedule)
      (IO.to_string r'.O.schedule)

let test_env_var_opens_store () =
  with_store_file @@ fun path ->
  Unix.putenv "SOCTEST_STORE" path;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SOCTEST_STORE" "")
    (fun () ->
      let engine = Engine.create () in
      Alcotest.(check bool) "engine picked the store up" true
        (Engine.store engine <> None);
      let soc = Test_helpers.mini4 () in
      ignore (Engine.solve engine (Engine.request soc ~tam_width:8 ~constraints:(un soc) ()));
      match Engine.store engine with
      | Some s ->
        Alcotest.(check bool) "solve written through" true (Store.length s >= 1);
        Store.close s
      | None -> Alcotest.fail "store vanished")

(* One evaluation's store key, byte for byte: stores written before the
   memory key became structured must still be found, and their keys
   still lead with the SOC digest, "pw=" and "W=" for tools that index
   them. *)
let test_store_key_bytes_pinned () =
  with_store_file @@ fun path ->
  let soc = Test_helpers.mini4 () in
  let store = Store.open_ path in
  ignore
    (Engine.solve (Engine.create ~store ())
       (Engine.request soc ~tam_width:8 ~constraints:(un soc) ()));
  let keys = ref [] in
  Store.iter store (fun ~key ~payload:_ -> keys := key :: !keys);
  Store.close store;
  Alcotest.(check (list string))
    "mini4 W=8, default params"
    [
      "8600fc4700cb29238937cadf21b8fe69|pw=64|W=8|wmax=64,p=5,d=1,s=3,w=true\
       |c=2fa0965c293ec5edc0f2d69849c98645|o=";
    ]
    !keys

(* ---------------- the per-solve audit verdict memo ---------------- *)

(* Four grid points of mini4 at W=8 that all yield one schedule; the
   tests assert that before relying on it. *)
let shared_req soc =
  Engine.request soc ~tam_width:8 ~constraints:(un soc)
    ~grid:
      {
        Engine.percents = [ 1; 5 ];
        deltas = [ 0; 1 ];
        slacks = [ 3 ];
        widens = [ true ];
      }
    ()

let decode payload =
  match Engine.result_of_payload payload with
  | Ok r -> r
  | Error e -> Alcotest.failf "stored payload does not decode: %s" e

(* Solve [shared_req] into a fresh store; the stored (key, payload)
   pairs come back, checked to share one schedule. *)
let seed_shared_store path =
  let soc = Test_helpers.mini4 () in
  let store = Store.open_ path in
  let solved = Engine.solve (Engine.create ~store ()) (shared_req soc) in
  let entries = ref [] in
  Store.iter store (fun ~key ~payload ->
      entries := (key, payload) :: !entries);
  Store.close store;
  Alcotest.(check int) "four stored grid points" 4 (List.length !entries);
  Alcotest.(check int) "one schedule among them" 1
    (List.length
       (List.sort_uniq compare
          (List.map (fun (_, p) -> IO.to_string (decode p).O.schedule)
             !entries)));
  (soc, solved, !entries)

let audits_counter = Obs.counter "check.audits"

(* Solve [shared_req] over the store at [path] with a fresh engine:
   the outcome, the engine's store counters and the audits run. *)
let solve_counting_audits soc path =
  let store = Store.open_ path in
  let engine = Engine.create ~store () in
  Obs.enable ~events:false ();
  let o = Engine.solve engine (shared_req soc) in
  let audits = Obs.counter_value audits_counter in
  Obs.disable ();
  Store.close store;
  (o, Engine.store_stats engine, audits)

let test_memo_audits_shared_schedule_once () =
  with_store_file @@ fun path ->
  let soc, solved, _ = seed_shared_store path in
  let o, stats, audits = solve_counting_audits soc path in
  Alcotest.(check int) "every grid point a store hit" 4 stats.Engine.hits;
  Alcotest.(check int) "no rejects" 0 stats.Engine.audit_rejects;
  Alcotest.(check int) "served from the store" 4
    o.Engine.stats.Engine.eval_from_store;
  Alcotest.(check int) "one audit for the shared schedule" 1 audits;
  Alcotest.(check string) "same answer"
    (IO.to_string solved.Engine.result.O.schedule)
    (IO.to_string o.Engine.result.O.schedule)

(* A winner loaded from the store keeps the report its load audit
   produced: serving it runs no further audit, and the report is the
   one a fresh audit of the served schedule gives. *)
let test_store_winner_keeps_load_audit () =
  with_store_file @@ fun path ->
  let soc, _, _ = seed_shared_store path in
  let store = Store.open_ path in
  let engine = Engine.create ~store () in
  Obs.enable ~events:false ();
  let o = Engine.solve engine (shared_req soc) in
  let loaded = Obs.counter_value audits_counter in
  let served = o.Engine.verdict () in
  let after = Obs.counter_value audits_counter in
  Obs.disable ();
  Store.close store;
  Alcotest.(check int) "one audit on load" 1 loaded;
  Alcotest.(check int) "serving the winner audits nothing" loaded after;
  let spec =
    Engine.audit_spec engine
      ~prepared:(Engine.prepare engine ~wmax:64 soc)
      ~wmax:64 ~expect_tam_width:8 (un soc)
  in
  Alcotest.(check bool) "the load audit's report" true
    (served
    = Soctest_check.Audit.run soc spec o.Engine.result.O.schedule)

(* A memoized clean verdict vouches for the schedule only: an entry
   whose testing time or widths disagree with that schedule is still
   rejected and healed, whether its schedule was audited before it
   (the last grid point) or after it (the first). *)
let test_memo_keeps_per_entry_checks () =
  List.iter
    (fun (point, tamper) ->
      with_store_file @@ fun path ->
      let soc, solved, entries = seed_shared_store path in
      let key, payload =
        List.find
          (fun (key, _) -> Test_helpers.contains_substring key point)
          entries
      in
      let store = Store.open_ path in
      Store.add store ~key
        (Engine.result_to_payload (tamper (decode payload)));
      Store.close store;
      let o, stats, audits = solve_counting_audits soc path in
      Alcotest.(check int) (point ^ ": tampered entry rejected") 1
        stats.Engine.audit_rejects;
      Alcotest.(check int) (point ^ ": the others served") 3
        stats.Engine.hits;
      Alcotest.(check int) (point ^ ": still one audit") 1 audits;
      Alcotest.(check string) (point ^ ": same answer")
        (IO.to_string solved.Engine.result.O.schedule)
        (IO.to_string o.Engine.result.O.schedule);
      (* the re-solve overwrote the tampered record *)
      let _, healed, _ = solve_counting_audits soc path in
      Alcotest.(check int) (point ^ ": healed") 4 healed.Engine.hits;
      Alcotest.(check int) (point ^ ": no rejects after healing") 0
        healed.Engine.audit_rejects)
    [
      ( ",p=1,d=0,",
        fun r -> { r with O.testing_time = r.O.testing_time + 1 } );
      ( ",p=5,d=1,",
        fun r ->
          {
            r with
            O.widths =
              List.map
                (fun (c, w) -> if c = 1 then (c, w + 1) else (c, w))
                r.O.widths;
          } );
    ]

let () =
  Alcotest.run "store"
    [
      ( "format",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "flipped byte skipped" `Quick
            test_flipped_byte_skipped;
          Alcotest.test_case "duplicate keys: last wins" `Quick
            test_duplicate_keys_last_wins;
          Alcotest.test_case "two handles share" `Quick test_two_handles_share;
          Alcotest.test_case "bad magic rejected" `Quick
            test_bad_magic_rejected;
          Alcotest.test_case "crc reference vector" `Quick
            test_crc_reference_vector;
          QCheck_alcotest.to_alcotest prop_truncate_anywhere;
        ] );
      ( "engine tier",
        [
          Alcotest.test_case "warm store bit-identical" `Quick
            test_warm_store_bit_identical;
          Alcotest.test_case "audit gate rejects corruption" `Quick
            test_audit_gate_rejects_corrupt_payload;
          Alcotest.test_case "payload codec round-trip" `Quick
            test_payload_codec_roundtrip;
          Alcotest.test_case "SOCTEST_STORE env" `Quick
            test_env_var_opens_store;
          Alcotest.test_case "store key bytes pinned" `Quick
            test_store_key_bytes_pinned;
        ] );
      ( "verdict memo",
        [
          Alcotest.test_case "one audit per shared schedule" `Quick
            test_memo_audits_shared_schedule_once;
          Alcotest.test_case "per-entry checks kept" `Quick
            test_memo_keeps_per_entry_checks;
          Alcotest.test_case "a loaded winner keeps its audit" `Quick
            test_store_winner_keeps_load_audit;
        ] );
    ]
