(* The twine CLI as a user meets it: every subcommand's --help renders
   without cmdliner markup errors, and bad arguments exit 2 with a
   message naming the cause. Runs the built binary as a subprocess. *)

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
      ("help", [ Alcotest.test_case "every subcommand renders" `Quick test_help_renders ]);
      ( "serve-args",
        [
          Alcotest.test_case "blame requires retention" `Quick
            test_blame_requires_retention;
          Alcotest.test_case "malformed chaos exits 2" `Quick test_malformed_chaos;
        ] );
    ]
