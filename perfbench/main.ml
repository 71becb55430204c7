(* Host-time benchmark of the TWINE reproduction.

     main.exe --workload (polybench | serve | sqlite-pfs) --seed N --seconds S
              --trace (0 | 1) [--corrupt-oracle]

   One single-threaded process, one closed-loop client. --trace 0 runs
   untraced and prints the end-to-end metrics; --trace 1 alternates
   untraced and traced work and prints the per-layer metrics, writing
   the spans to perfbench/traces/. The last line of stdout is
   the JSON result. --corrupt-oracle plants one wrong expected value, to
   show the output check counts it as a failed op. *)

open Common

let json_result r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (r.failed = 0) r.attempted r.failed;
  List.iteri
    (fun i x ->
      let v = if Float.is_finite x.value then x.value else 0. in
      Printf.bprintf b "%s%S: {\"value\": %.17g, \"unit\": %S}"
        (if i = 0 then "" else ", ") x.name v x.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let corrupt = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "polybench | serve | sqlite-pfs");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--corrupt-oracle", Arg.Set corrupt, "plant one wrong expected value") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = float_of_int (max 1 !seconds) in
  let trace_file =
    if trace then begin
      (try Sys.mkdir "perfbench/traces" 0o755 with Sys_error _ -> ());
      Printf.sprintf "perfbench/traces/%s-seed%d.json" !workload !seed
    end
    else ""
  in
  let seed = !seed and corrupt = !corrupt in
  let r =
    match !workload with
    | "polybench" -> Wl_polybench.run ~seed ~seconds ~trace ~corrupt ~trace_file
    | "sqlite-pfs" -> Wl_sqlite.run ~seed ~seconds ~trace ~corrupt ~trace_file
    | "serve" -> Wl_serve.run ~seed ~seconds ~trace ~corrupt ~trace_file
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  List.iter print_endline r.notes;
  print_endline (json_result r)
