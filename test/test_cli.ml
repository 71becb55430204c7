(* The twine CLI as a user meets it: every subcommand's --help renders
   without cmdliner markup errors, bad arguments exit 2 with a message
   naming the cause, and `twine serve` artifacts replay byte-identically.
   Runs the built binary as a subprocess. *)

open Twine_obs

let cli = "../bin/twine_cli.exe"

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* (exit code, stdout, stderr) *)
let run args =
  let out = Filename.temp_file "twine-cli" ".out" in
  let err = Filename.temp_file "twine-cli" ".err" in
  let code = Sys.command (Filename.quote_command cli ~stdout:out ~stderr:err args) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

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
    (fun (flag, v) ->
      Alcotest.(check bool) (flag ^ " shows its default") true
        (contains out (Printf.sprintf "%s=NS (absent=%d)" flag v)
        || contains out (Printf.sprintf "%s=N (absent=%d)" flag v)))
    [ ("--mean-gap-ns", d.Twine_serve.Serve.mean_gap_ns);
      ("--retries", d.retries);
      ("--backoff", d.backoff_ns) ]

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
        ] );
    ]
