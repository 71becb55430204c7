(* Flight recorder (ring buffer + Chrome-trace export) and the
   benchmark baseline comparator. *)

open Twine_obs

(* --- ring buffer --- *)

let test_ring_wrap () =
  let clock = ref 0 in
  let tr = Trace.create ~capacity:4 ~now:(fun () -> !clock) () in
  for i = 1 to 10 do
    clock := i * 10;
    Trace.instant tr ~cat:"t" ~args:[ ("i", i) ] "ev"
  done;
  Alcotest.(check int) "total" 10 (Trace.total tr);
  Alcotest.(check int) "length capped" 4 (Trace.length tr);
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  let survivors = List.map (fun e -> List.assoc "i" e.Trace.args) (Trace.events tr) in
  Alcotest.(check (list int)) "newest survive, oldest first" [ 7; 8; 9; 10 ] survivors;
  let ts = List.map (fun e -> e.Trace.ts) (Trace.events tr) in
  Alcotest.(check (list int)) "timestamps preserved" [ 70; 80; 90; 100 ] ts

let test_disabled_records_nothing () =
  let tr = Trace.create ~capacity:8 ~enabled:false ~now:(fun () -> 0) () in
  Trace.instant tr ~cat:"t" "ev";
  Trace.begin_span tr ~cat:"t" "span";
  Trace.end_span tr ~cat:"t" "span";
  Trace.counter tr ~cat:"t" "ctr" [ ("v", 1) ];
  Alcotest.(check int) "nothing recorded" 0 (Trace.total tr);
  Alcotest.(check int) "nothing held" 0 (Trace.length tr);
  Trace.set_enabled tr true;
  Trace.instant tr ~cat:"t" "ev";
  Alcotest.(check int) "records after enable" 1 (Trace.total tr)

let test_clear () =
  let tr = Trace.create ~capacity:4 ~now:(fun () -> 7) () in
  Trace.instant tr ~cat:"t" "a";
  Trace.instant tr ~cat:"t" "b";
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr);
  Alcotest.(check int) "total reset" 0 (Trace.total tr)

let test_lost_and_high_water () =
  let tr = Trace.create ~capacity:4 ~now:(fun () -> 0) () in
  Trace.instant tr ~cat:"t" "a";
  Trace.instant tr ~cat:"t" "b";
  Alcotest.(check int) "no loss below capacity" 0 (Trace.lost tr);
  Alcotest.(check int) "high water tracks the fill" 2 (Trace.high_water tr);
  for _ = 1 to 8 do Trace.instant tr ~cat:"t" "x" done;
  Alcotest.(check int) "wrap overwrites count as lost" 6 (Trace.lost tr);
  Alcotest.(check int) "dropped agrees since last clear" 6 (Trace.dropped tr);
  Alcotest.(check int) "high water saturates at capacity" 4 (Trace.high_water tr);
  (* an intentional clear is not data loss: lost and the peak survive,
     dropped restarts *)
  Trace.clear tr;
  Alcotest.(check int) "dropped restarts after clear" 0 (Trace.dropped tr);
  Alcotest.(check int) "lost accumulates across clears" 6 (Trace.lost tr);
  Alcotest.(check int) "high water survives clear" 4 (Trace.high_water tr);
  Trace.instant tr ~cat:"t" "y";
  Alcotest.(check int) "held restarts" 1 (Trace.length tr);
  Alcotest.(check int) "no new loss" 6 (Trace.lost tr)

(* --- Enclave crossings emit span Begin/End --- *)

(* the crossing instants and the spans of a traced machine, in order *)
let boundary_events tr =
  List.filter_map
    (fun e ->
      match e.Trace.phase with
      | Trace.Begin | Trace.End | Trace.Instant -> Some (e.Trace.phase, e.Trace.name)
      | Trace.Counter -> None)
    (Trace.events tr)

let traced_enclave () =
  let m = Twine_sgx.Machine.create ~seed:"spans" () in
  let tr = Twine_sgx.Machine.attach_tracer m in
  (tr, Twine_sgx.Enclave.create m ~code:"spans" ())

let test_obs_span_events () =
  let tr, e = traced_enclave () in
  Twine_sgx.Enclave.ecall e ~name:"outer" (fun e ->
      Twine_sgx.Enclave.ocall e ~name:"inner" (fun () -> ()));
  Alcotest.(check bool) "spans nest inside their crossings" true
    (boundary_events tr
    = [ (Trace.Instant, "outer.crossing"); (Trace.Begin, "outer");
        (Trace.Instant, "inner.crossing"); (Trace.Begin, "inner");
        (Trace.End, "inner"); (Trace.Instant, "inner.crossing");
        (Trace.End, "outer"); (Trace.Instant, "outer.crossing") ]);
  let ts = List.map (fun e -> e.Trace.ts) (Trace.events tr) in
  Alcotest.(check bool) "non-decreasing ts" true (List.sort compare ts = ts)

let test_span_end_on_unwind () =
  let tr, e = traced_enclave () in
  (try
     Twine_sgx.Enclave.ecall e ~name:"boom" (fun _ -> failwith "inner failure")
   with Failure _ -> ());
  Alcotest.(check bool) "End emitted when the body raises" true
    (boundary_events tr
    = [ (Trace.Instant, "boom.crossing"); (Trace.Begin, "boom");
        (Trace.End, "boom"); (Trace.Instant, "boom.crossing") ])

(* --- Chrome trace-event export --- *)

let test_export_json () =
  let clock = ref 0 in
  let tr = Trace.create ~now:(fun () -> !clock) () in
  Trace.begin_span tr ~cat:"span" "main";
  clock := 1500;
  Trace.instant tr ~cat:"epc" ~args:[ ("page", 3) ] "epc.fault";
  clock := 2000;
  Trace.counter tr ~cat:"epc" "epc.resident" [ ("pages", 8) ];
  Trace.end_span tr ~cat:"span" "main";
  let s = Trace_export.to_string ~process_name:"test" tr in
  let j =
    match Json.parse s with
    | Ok j -> j
    | Error msg -> Alcotest.failf "export did not parse: %s" msg
  in
  let evs = Option.get (Option.bind (Json.member "traceEvents" j) Json.to_list) in
  (* 2 metadata events + 4 recorded *)
  Alcotest.(check int) "event count" 6 (List.length evs);
  let ph e = Option.get (Option.bind (Json.member "ph" e) Json.to_str) in
  let data = List.filter (fun e -> ph e <> "M") evs in
  Alcotest.(check (list string)) "phases" [ "B"; "i"; "C"; "E" ] (List.map ph data);
  let ts e = Option.get (Option.bind (Json.member "ts" e) Json.to_float) in
  let tss = List.map ts data in
  Alcotest.(check bool) "ts non-decreasing (microseconds)" true
    (List.sort compare tss = tss);
  Alcotest.(check (float 1e-9)) "ns -> us" 1.5 (List.nth tss 1);
  (* the instant carries its scope and args *)
  let inst = List.nth data 1 in
  Alcotest.(check (option string)) "instant scope" (Some "t")
    (Option.bind (Json.member "s" inst) Json.to_str);
  Alcotest.(check (option (float 1e-9))) "args.page" (Some 3.)
    (Option.bind (Json.member "args" inst)
       (fun a -> Option.bind (Json.member "page" a) Json.to_float))

let test_export_tracks_and_loss () =
  let tr = Trace.create ~capacity:4 ~now:(fun () -> 0) () in
  for _ = 1 to 5 do Trace.instant tr ~cat:"t" "spill" done;
  Trace.instant tr ~cat:"t" "plain";
  (* the reserved "tid" arg routes an event onto its own track and is
     stripped from the exported args *)
  Trace.instant tr ~cat:"serve" ~args:[ ("tid", 102); ("rid", 7) ] "req";
  let s =
    Trace_export.to_string ~process_name:"fleet"
      ~threads:[ (102, "enclave 2 requests") ]
      tr
  in
  let j =
    match Json.parse s with
    | Ok j -> j
    | Error msg -> Alcotest.failf "export did not parse: %s" msg
  in
  let member_exn path j =
    match Json.member path j with
    | Some v -> v
    | None -> Alcotest.failf "missing member %S" path
  in
  (* ring health is exported for downstream validators *)
  let other = member_exn "otherData" j in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "otherData.%s" k)
        (Some v)
        (Json.to_float (member_exn k other)))
    [ ("recorded", 7.); ("dropped", 3.); ("lost", 3.); ("high_water", 4.);
      ("capacity", 4.) ];
  let evs = Option.get (Option.bind (Json.member "traceEvents" j) Json.to_list) in
  let tid e = Option.bind (Json.member "tid" e) Json.to_float in
  let metas, data =
    List.partition
      (fun e -> Option.bind (Json.member "ph" e) Json.to_str = Some "M")
      evs
  in
  (* the ring wrapped: only the newest 4 events survive *)
  Alcotest.(check int) "held events exported" 4 (List.length data);
  (* the request event rides tid 102 with "tid" gone from its args *)
  let req =
    List.find
      (fun e -> Option.bind (Json.member "name" e) Json.to_str = Some "req")
      evs
  in
  Alcotest.(check (option (float 0.0))) "tid honoured" (Some 102.) (tid req);
  let args = member_exn "args" req in
  Alcotest.(check (option (float 0.0))) "rid survives" (Some 7.)
    (Json.to_float (member_exn "rid" args));
  Alcotest.(check bool) "reserved tid stripped from args" true
    (Json.member "tid" args = None);
  (* thread_name metadata names the track *)
  let thread_meta =
    List.filter
      (fun e ->
        Option.bind (Json.member "name" e) Json.to_str = Some "thread_name")
      metas
  in
  Alcotest.(check bool) "track named" true
    (List.exists
       (fun e ->
         tid e = Some 102.
         && Option.bind (Json.member "args" e) (fun a ->
                Option.bind (Json.member "name" a) Json.to_str)
            = Some "enclave 2 requests")
       thread_meta)

(* --- end-to-end: a traced runtime run --- *)

let trace_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (import "wasi_snapshot_preview1" "proc_exit" (func $proc_exit (param i32)))
      (memory (export "memory") 2)
      (data (i32.const 8) "traced\n")
      (func (export "_start")
        (i32.store (i32.const 0) (i32.const 8))
        (i32.store (i32.const 4) (i32.const 7))
        (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 20)))
        (call $proc_exit (i32.const 0))))|}

let test_runtime_trace () =
  let machine = Twine_sgx.Machine.create ~seed:"trace" ~epc_bytes:(16 * 4096) () in
  let tr = Twine_sgx.Machine.attach_tracer machine in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse trace_wat);
  let r = Twine.Runtime.run rt in
  Alcotest.(check int) "exit 0" 0 r.Twine.Runtime.exit_code;
  let evs = Trace.events tr in
  let has pred = List.exists pred evs in
  Alcotest.(check bool) "twine.main span" true
    (has (fun e -> e.Trace.phase = Trace.Begin && e.Trace.name = "twine.main"));
  Alcotest.(check bool) "ecall crossing" true
    (has (fun e -> e.Trace.cat = "sgx" && e.Trace.name = "twine.main.crossing"));
  Alcotest.(check bool) "epc fault" true
    (has (fun e -> e.Trace.cat = "epc" && e.Trace.name = "epc.fault"));
  Alcotest.(check bool) "wasi hostcall" true
    (has (fun e -> e.Trace.cat = "wasi" && e.Trace.name = "wasi.fd_write"));
  let ts = List.map (fun e -> e.Trace.ts) evs in
  Alcotest.(check bool) "virtual-time ordered" true (List.sort compare ts = ts);
  (* the exported JSON for a real run still parses *)
  (match Json.parse (Trace_export.to_string tr) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "real-run export did not parse: %s" msg);
  (* a machine without a tracer records nothing and still runs *)
  let m2 = Twine_sgx.Machine.create ~seed:"trace" ~epc_bytes:(16 * 4096) () in
  Alcotest.(check (option reject)) "no tracer by default" None
    (Obs.tracer m2.Twine_sgx.Machine.obs)

(* --- baseline comparator --- *)

let baseline_of metrics = Baseline.create ~meta:[ ("generator", "test") ] metrics

let test_baseline_roundtrip () =
  let b =
    baseline_of
      [ Baseline.v ~tol:0.0 "counts.ecall" 42;
        Baseline.v ~tol:0.02 "time.virtual_ns" 123456;
        Baseline.v "wall.ns" 999 ]
  in
  match Baseline.of_string (Baseline.to_string b) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok b2 ->
      Alcotest.(check int) "metric count" 3 (List.length b2.Baseline.metrics);
      let m = List.assoc "time.virtual_ns" b2.Baseline.metrics in
      Alcotest.(check (float 1e-9)) "value" 123456. m.Baseline.value;
      Alcotest.(check (option (float 1e-9))) "tol" (Some 0.02) m.Baseline.tol;
      let w = List.assoc "wall.ns" b2.Baseline.metrics in
      Alcotest.(check (option (float 1e-9))) "no band" None w.Baseline.tol

let test_baseline_check () =
  let base =
    baseline_of
      [ Baseline.v ~tol:0.0 "exact" 100;
        Baseline.v ~tol:0.05 "banded" 1000;
        Baseline.v "info" 500 ]
  in
  (* identical run passes *)
  let same = Baseline.check ~baseline:base ~current:base in
  Alcotest.(check bool) "identical passes" true (Baseline.all_ok same);
  (* within band passes; outside fails; informational never gates *)
  let drifted =
    baseline_of
      [ Baseline.v ~tol:0.0 "exact" 100;
        Baseline.v ~tol:0.05 "banded" 1040;
        Baseline.v "info" 9999 ]
  in
  Alcotest.(check bool) "4% drift within 5% band" true
    (Baseline.all_ok (Baseline.check ~baseline:base ~current:drifted));
  let broken =
    baseline_of
      [ Baseline.v ~tol:0.0 "exact" 101;
        Baseline.v ~tol:0.05 "banded" 1000;
        Baseline.v "info" 500 ]
  in
  let vs = Baseline.check ~baseline:base ~current:broken in
  Alcotest.(check bool) "perturbed exact metric fails" false (Baseline.all_ok vs);
  let bad = List.filter (fun v -> not v.Baseline.ok) vs in
  Alcotest.(check (list string)) "only the perturbed metric" [ "exact" ]
    (List.map (fun v -> v.Baseline.path) bad);
  (* a metric missing from the current run fails the check *)
  let missing = baseline_of [ Baseline.v ~tol:0.0 "exact" 100 ] in
  Alcotest.(check bool) "missing metric fails" false
    (Baseline.all_ok (Baseline.check ~baseline:base ~current:missing))

let suite =
  [ ( "ring",
      [ Alcotest.test_case "wrap keeps newest" `Quick test_ring_wrap;
        Alcotest.test_case "disabled records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "lost and high water" `Quick
          test_lost_and_high_water ] );
    ( "obs",
      [ Alcotest.test_case "span begin/end events" `Quick test_obs_span_events;
        Alcotest.test_case "span end on unwind" `Quick test_span_end_on_unwind ] );
    ( "export",
      [ Alcotest.test_case "chrome trace json" `Quick test_export_json;
        Alcotest.test_case "tracks, thread names, ring health" `Quick
          test_export_tracks_and_loss ] );
    ( "runtime",
      [ Alcotest.test_case "traced run" `Quick test_runtime_trace ] );
    ( "baseline",
      [ Alcotest.test_case "json round-trip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "check verdicts" `Quick test_baseline_check ] );
  ]

let () = Alcotest.run "twine_trace" suite
