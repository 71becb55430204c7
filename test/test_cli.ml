(* The twine CLI as a user meets it: every subcommand's --help renders
   without cmdliner markup errors, bad arguments exit 2 with a message
   naming the cause, and `twine serve` artifacts replay byte-identically
   (chaos schedules included). Also checks the bench harness's section
   dispatch. Runs the built binaries as subprocesses. *)

open Twine_obs

let cli = "../bin/twine_cli.exe"
let bench = "../bench/main.exe"

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* (exit code, stdout, stderr) *)
let run_exe exe args =
  let out = Filename.temp_file "twine-cli" ".out" in
  let err = Filename.temp_file "twine-cli" ".err" in
  let code = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let run = run_exe cli

let subcommands = [ "diff"; "inspect"; "run"; "serve"; "sql"; "validate"; "wat2wasm" ]

let test_help_renders () =
  List.iter
    (fun sub ->
      let code, out, err = run [ sub; "--help=plain" ] in
      Alcotest.(check int) (sub ^ " --help exits 0") 0 code;
      Alcotest.(check bool) (sub ^ " --help prints a manual") true
        (contains out "NAME");
      Alcotest.(check bool) (sub ^ " --help has no cmdliner error") false
        (contains out "cmdliner error" || contains err "cmdliner error"))
    subcommands

(* the per-request views are gone under --stream: asking for them must
   fail loudly with exit 2, not silently print nothing *)
let test_blame_requires_retention () =
  let code, _, err = run [ "serve"; "--requests"; "2000"; "--stream"; "--blame" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "stderr says retention is off" true
    (contains err "retention is off")

(* the documented defaults are the library's, not a copy that can drift *)
let test_serve_help_defaults () =
  let _, out, _ = run [ "serve"; "--help=plain" ] in
  let d = Twine_serve.Serve.default_config in
  List.iter
    (fun (flag, docv, v) ->
      let shown = Printf.sprintf "%s=%s (absent=%s)" flag docv v in
      Alcotest.(check bool) (shown ^ " shown") true (contains out shown))
    [ ("--enclaves", "N", string_of_int d.Twine_serve.Serve.enclaves);
      ("--requests", "N", string_of_int d.requests);
      ("--batch", "N", string_of_int d.batch);
      ("--seed", "SEED", d.seed);
      ("--mean-gap-ns", "NS", string_of_int d.mean_gap_ns);
      ("--deadline-ns", "NS", string_of_int d.deadline_ns);
      ("--retries", "N", string_of_int d.retries);
      ("--backoff", "NS", string_of_int d.backoff_ns);
      ("--shed-depth", "N", string_of_int d.shed_depth) ]

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* run `twine serve --enclaves 4 --requests 5000 ARGS FLAG <tmp>` and
   return the artifact it wrote to <tmp> *)
let serve_artifact args flag =
  let f = Filename.temp_file "twine-serve" ".json" in
  let code, _, err =
    run ([ "serve"; "--enclaves"; "4"; "--requests"; "5000" ] @ args @ [ flag; f ])
  in
  Alcotest.(check int) ("serve exits 0: " ^ err) 0 code;
  let s = read_file f in
  Sys.remove f;
  s

(* the observability layers only watch the run: a ledger written with
   blame, a tracer and a timeline attached is the same bytes as a plain
   run's *)
let test_replay_ledger () =
  let trace = Filename.temp_file "twine-serve" ".trace.json" in
  let timeline = Filename.temp_file "twine-serve" ".timeline.json" in
  let a =
    serve_artifact
      [ "--blame"; "--top"; "5"; "--trace"; trace; "--timeline"; timeline ]
      "--ledger"
  in
  Sys.remove trace;
  Sys.remove timeline;
  let b = serve_artifact [] "--ledger" in
  Alcotest.(check bool) "ledger is non-empty" true (String.length a > 0);
  Alcotest.(check bool) "same seed, byte-identical ledger with and without observers"
    true (a = b)

(* the query-stats registry folds on the serving path itself, so the
   retained and --stream artifacts are the same bytes *)
let test_sqlstats_retained_vs_stream () =
  let retained = serve_artifact [] "--sql-stats" in
  let stream = serve_artifact [ "--stream" ] "--sql-stats" in
  Alcotest.(check bool) "retained and --stream byte-identical" true
    (retained = stream);
  let d = Json.parse_exn retained in
  let get k j = Option.get (Json.member k j) in
  let num k j = int_of_float (Option.get (Json.to_float (get k j))) in
  let list j = Option.get (Json.to_list j) in
  let counted entries = List.fold_left (fun a e -> a + num "count" e) 0 entries in
  Alcotest.(check (option string)) "schema" (Some "twine-sqlstats/v1")
    (Json.to_str (get "schema" d));
  Alcotest.(check int) "requests" 5000 (num "requests" d);
  let fleet = list (get "fleet" d) in
  Alcotest.(check int) "fleet counts every request" 5000 (counted fleet);
  List.iter
    (fun e ->
      let fp = Option.get (Json.to_str (get "fingerprint" e)) in
      Alcotest.(check bool) (fp ^ ": literals normalized") true (contains fp "?"))
    fleet;
  let per_enclave = List.map (fun e -> list (get "stats" e)) (list (get "by_enclave" d)) in
  Alcotest.(check int) "one registry per enclave" 4 (List.length per_enclave);
  Alcotest.(check int) "enclave registries count every request" 5000
    (List.fold_left (fun a s -> a + counted s) 0 per_enclave)

(* one seeded enclave crash with deadlines and retries: the failover
   path replays byte-identically, with blame attached or not, and a
   --stream run (no retention) gives the same SLO artifact *)
let test_chaos_replay () =
  let chaos_run extra =
    let ledger = Filename.temp_file "twine-chaos" ".ledger.json" in
    let slo = Filename.temp_file "twine-chaos" ".slo.json" in
    let code, _, err =
      run
        ([ "serve"; "--enclaves"; "4"; "--requests"; "20000"; "--chaos";
           "seed=ci;enclave.ecall=crash@200"; "--deadline-ns"; "40000000";
           "--retries"; "3"; "--backoff"; "50000"; "--ledger"; ledger;
           "--slo-out"; slo ]
        @ extra)
    in
    let artifacts = (read_file ledger, read_file slo) in
    Sys.remove ledger;
    Sys.remove slo;
    (code, err, artifacts)
  in
  let code_a, err_a, (ledger_a, slo_a) = chaos_run [ "--blame"; "--top"; "5" ] in
  let code_b, err_b, (ledger_b, slo_b) = chaos_run [] in
  let code_c, err_c, (_, slo_c) = chaos_run [ "--stream" ] in
  Alcotest.(check int) ("run A (blame) exits 0: " ^ err_a) 0 code_a;
  Alcotest.(check int) ("run B exits 0: " ^ err_b) 0 code_b;
  Alcotest.(check int) ("run C (stream) exits 0: " ^ err_c) 0 code_c;
  Alcotest.(check bool) "ledger is non-empty" true (String.length ledger_a > 0);
  Alcotest.(check bool) "ledger A = B byte-for-byte" true (ledger_a = ledger_b);
  Alcotest.(check bool) "SLO artifact A = B byte-for-byte" true (slo_a = slo_b);
  Alcotest.(check bool) "SLO artifact A = stream C byte-for-byte" true (slo_a = slo_c)

(* every section the bench harness knows *)
let bench_sections =
  [ "fig3"; "fig4"; "fig5"; "table2"; "fig6"; "fig7"; "table3"; "ablate";
    "report"; "profile"; "crash"; "serve"; "chaos"; "sql" ]

(* an unknown bench section is a usage error that lists the real ones,
   not a silent run of nothing *)
let test_bench_unknown_section () =
  let code, out, err = run_exe bench [ "nosuch" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check string) "nothing on stdout" "" out;
  List.iter
    (fun name ->
      Alcotest.(check bool) ("stderr names " ^ name) true
        (contains err ("\n  " ^ name ^ " ")))
    bench_sections

let test_malformed_chaos () =
  List.iter
    (fun spec ->
      let code, _, err = run [ "serve"; "--requests"; "100"; "--chaos"; spec ] in
      Alcotest.(check int) (spec ^ ": exit 2") 2 code;
      Alcotest.(check bool) (spec ^ ": stderr names --chaos") true
        (contains err "--chaos"))
    [ "enclave.ecall=explode"; "enclave.ecall=crash[5ms..2ms]"; "enclave.ecall=fail%2.0" ]

let () =
  Alcotest.run "twine_cli"
    [
      ( "help",
        [
          Alcotest.test_case "every subcommand renders" `Quick test_help_renders;
          Alcotest.test_case "serve shows library defaults" `Quick
            test_serve_help_defaults;
        ] );
      ( "serve-args",
        [
          Alcotest.test_case "blame requires retention" `Quick
            test_blame_requires_retention;
          Alcotest.test_case "malformed chaos exits 2" `Quick test_malformed_chaos;
        ] );
      ( "serve-artifacts",
        [
          Alcotest.test_case "replay determinism" `Quick test_replay_ledger;
          Alcotest.test_case "query-stats retained vs stream" `Quick
            test_sqlstats_retained_vs_stream;
          Alcotest.test_case "chaos replay determinism" `Quick test_chaos_replay;
        ] );
      ( "bench",
        [
          Alcotest.test_case "unknown section exits 2" `Quick
            test_bench_unknown_section;
        ] );
    ]
