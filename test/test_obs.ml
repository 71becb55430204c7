(* Telemetry registry (lib/obs) and the accounting regressions it was
   built to catch: unaccounted C-string scans and the per-run enclave
   heap leak. *)

open Twine_obs
open Twine_sgx

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- registry --- *)

let test_counters () =
  let obs = Obs.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.value obs "x");
  Obs.inc obs "x";
  Obs.inc obs "x";
  Obs.add obs "y" 40;
  Obs.add obs "y" 2;
  Alcotest.(check int) "inc twice" 2 (Obs.value obs "x");
  Alcotest.(check int) "add accumulates" 42 (Obs.value obs "y");
  Alcotest.(check (list (pair string int)))
    "sorted snapshot"
    [ ("x", 2); ("y", 42) ]
    (Obs.counters obs);
  Obs.reset obs;
  Alcotest.(check int) "reset clears" 0 (Obs.value obs "x")

(* --- report rendering --- *)

let test_report_render () =
  let machine = Machine.create ~seed:"obs-render" () in
  let obs = machine.Machine.obs in
  Obs.add obs "epc.hit" 3;
  Obs.add obs "epc.fault" 1;
  Obs.add obs "ipfs.cache.miss" 8;
  Machine.charge machine "sgx.launch" 2_000_000;
  let r = Report.render ~ledger:(Machine.ledger machine) obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report contains %S" needle)
        true
        (contains r needle))
    [ "epc.hit"; "epc.hit_rate"; "75.0%"; "ipfs.cache.hit_rate"; "0.0%";
      "sgx.launch" ];
  (* the ledger is the one record of the run's time *)
  List.iter
    (fun gone ->
      Alcotest.(check bool) (Printf.sprintf "no %S table" gone) false
        (contains r gone))
    [ "-- costs --"; "-- spans --" ]

let test_report_json () =
  let obs = Obs.create () in
  Obs.add obs "wasi.hostcall" 5;
  Alcotest.(check string) "counters only"
    {|{"counters":{"wasi.hostcall":5}}|} (Report.to_json obs)

(* --- baseline JSON: round-trip and verdict rendering --- *)

let test_baseline_round_trip () =
  let b =
    Baseline.create
      ~meta:[ ("generator", "test"); ("note", "round trip") ]
      [ Baseline.v ~tol:0.02 "report.virtual_ns" 12345;
        Baseline.v ~tol:0.0 "report.fuel" 2647;
        Baseline.vf "polybench.atax.native_wall_ns" 98765.0 ]
  in
  match Baseline.of_string (Baseline.to_string b) with
  | Error msg -> Alcotest.fail msg
  | Ok b' ->
      Alcotest.(check bool) "meta survives" true (b.Baseline.meta = b'.Baseline.meta);
      Alcotest.(check int) "metric count" 3 (List.length b'.Baseline.metrics);
      List.iter2
        (fun (p, (m : Baseline.metric)) (p', (m' : Baseline.metric)) ->
          Alcotest.(check string) "path order preserved" p p';
          Alcotest.(check (float 0.0)) (p ^ " value") m.Baseline.value m'.Baseline.value;
          Alcotest.(check bool) (p ^ " tol survives (incl. None)") true
            (m.Baseline.tol = m'.Baseline.tol))
        b.Baseline.metrics b'.Baseline.metrics

let test_baseline_verdicts () =
  let baseline =
    Baseline.create
      [ Baseline.v ~tol:0.1 "guarded" 100;
        Baseline.v "informational" 100;
        Baseline.v ~tol:0.0 "vanished" 7 ]
  in
  let current =
    Baseline.create
      [ Baseline.v ~tol:0.1 "guarded" 105;
        (* informational drifts wildly but must not gate *)
        Baseline.v "informational" 900 ]
  in
  let vs = Baseline.check ~baseline ~current in
  let find p = List.find (fun v -> v.Baseline.path = p) vs in
  Alcotest.(check bool) "in-band metric ok" true (find "guarded").Baseline.ok;
  Alcotest.(check bool) "informational never gates" true
    (find "informational").Baseline.ok;
  Alcotest.(check bool) "missing metric fails" false (find "vanished").Baseline.ok;
  Alcotest.(check bool) "missing metric has no got" true
    ((find "vanished").Baseline.got = None);
  let table = Baseline.render vs in
  Alcotest.(check bool) "informational renders as info, not ok" true
    (contains table "info");
  Alcotest.(check bool) "missing renders FAIL" true (contains table "FAIL");
  Alcotest.(check bool) "missing shows as missing" true (contains table "missing")

(* Golden shape check: the report JSON parses back and exposes exactly
   the members downstream tooling keys on, including the ledger. *)
let test_report_json_shape () =
  let machine = Machine.create ~seed:"obs-shape" () in
  let obs = machine.Machine.obs in
  Machine.charge machine "sgx.launch" 1000;
  Machine.charge machine "mee.copy" 500;
  Obs.inc obs "epc.hit";
  let j = Report.to_json ~ledger:(Machine.ledger machine) obs in
  match Json.parse j with
  | Error msg -> Alcotest.fail ("report JSON does not parse: " ^ msg)
  | Ok json ->
      let member_exn path j =
        match Json.member path j with
        | Some v -> v
        | None -> Alcotest.fail (Printf.sprintf "missing member %S" path)
      in
      List.iter
        (fun m -> ignore (member_exn m json))
        [ "counters"; "ledger" ];
      let ledger = member_exn "ledger" json in
      Alcotest.(check (option string)) "ledger schema"
        (Some Ledger.schema)
        (Json.to_str (member_exn "schema" ledger));
      Alcotest.(check (option (float 0.0))) "booked total in JSON" (Some 1500.)
        (Json.to_float (member_exn "booked_ns" ledger));
      let copy = member_exn "mee.copy" (member_exn "accounts" ledger) in
      Alcotest.(check (option (float 0.0))) "account ns" (Some 500.)
        (Json.to_float (member_exn "ns" copy))

(* --- regression: C-string loads feed the access hook / EPC --- *)

let test_cstring_epc_pressure () =
  let machine = Machine.create ~seed:"obs-cstr" ~epc_bytes:(8 * 4096) () in
  let enclave = Enclave.create machine ~code:"cstr" () in
  let mem = Twine_wasm.Memory.create { Twine_wasm.Types.min = 1; max = Some 1 } in
  (* a string spanning four 4 KiB EPC pages, written before the hook *)
  Twine_wasm.Memory.store_bytes mem 0 (String.make 16000 'a');
  let base = Enclave.reserve enclave (Twine_wasm.Memory.size_bytes mem) in
  Twine.Runtime.install_memory_hook enclave ~base mem;
  let faults0 = Epc.faults machine.Machine.epc in
  let s = Twine_wasm.Memory.load_cstring mem 0 in
  Alcotest.(check int) "string length" 16000 (String.length s);
  let faults = Epc.faults machine.Machine.epc - faults0 in
  Alcotest.(check bool)
    (Printf.sprintf "cstring scan faults pages in (%d faults)" faults)
    true (faults >= 4)

let test_cstring_out_of_bounds () =
  let mem = Twine_wasm.Memory.create { Twine_wasm.Types.min = 1; max = Some 1 } in
  (* no NUL anywhere: the scan must trap, not run off the end *)
  Twine_wasm.Memory.store_bytes mem 0
    (String.make (Twine_wasm.Memory.size_bytes mem) 'x');
  Alcotest.check_raises "unterminated string traps"
    (Twine_wasm.Values.Trap "unterminated string") (fun () ->
      ignore (Twine_wasm.Memory.load_cstring mem 0))

(* --- regression: repeated runs do not leak enclave heap --- *)

let hello_wat =
  {|(module
      (import "wasi_snapshot_preview1" "fd_write"
        (func $fd_write (param i32 i32 i32 i32) (result i32)))
      (memory (export "memory") 1)
      (data (i32.const 16) "hi\n")
      (func (export "_start")
        (i32.store (i32.const 0) (i32.const 16))
        (i32.store (i32.const 4) (i32.const 3))
        (drop (call $fd_write (i32.const 1) (i32.const 0) (i32.const 1) (i32.const 8)))))|}

let test_run_does_not_leak_heap () =
  let machine = Machine.create ~seed:"obs-leak" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  let run () = ignore (Twine.Runtime.run rt) in
  run ();
  let size1 = Enclave.size_bytes (Twine.Runtime.enclave rt) in
  for _ = 1 to 5 do run () done;
  let size2 = Enclave.size_bytes (Twine.Runtime.enclave rt) in
  Alcotest.(check int) "enclave size stable across runs" size1 size2

let test_run_counts_surface () =
  let machine = Machine.create ~seed:"obs-counts" () in
  let rt = Twine.Runtime.create machine in
  Twine.Runtime.deploy rt (Twine_wasm.Wat.parse hello_wat);
  ignore (Twine.Runtime.run rt);
  let obs = machine.Machine.obs in
  Alcotest.(check bool) "ecalls counted" true (Obs.value obs "sgx.ecall" >= 2);
  Alcotest.(check bool) "wasi dispatch counted" true
    (Obs.value obs "wasi.hostcall" >= 1);
  Alcotest.(check int) "fd_write counted" 1 (Obs.value obs "wasi.fd_write");
  Alcotest.(check bool) "run ecall booked" true
    (Ledger.ns (Machine.ledger machine) "sgx.transition.ecall" > 0)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_render;
          Alcotest.test_case "json" `Quick test_report_json;
          Alcotest.test_case "json shape (golden)" `Quick test_report_json_shape;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "verdicts" `Quick test_baseline_verdicts;
        ] );
      ( "accounting regressions",
        [
          Alcotest.test_case "cstring EPC pressure" `Quick test_cstring_epc_pressure;
          Alcotest.test_case "cstring bounds" `Quick test_cstring_out_of_bounds;
          Alcotest.test_case "no heap leak across runs" `Quick test_run_does_not_leak_heap;
          Alcotest.test_case "run telemetry surfaces" `Quick test_run_counts_surface;
        ] );
    ]
