(* Export a flight-recorder ring as Chrome trace-event JSON (the JSON
   Array Format with a [traceEvents] wrapper), directly loadable in
   ui.perfetto.dev or chrome://tracing.

   The simulator is single-threaded on one virtual clock, so by default
   every event lands on pid 1 / tid 1; virtual nanoseconds map onto the
   format's microsecond [ts] field as a fraction. An event arg named
   "tid" is treated as a track assignment rather than data: the serving
   fleet uses it to put each enclave's request spans on its own named
   track. *)

let phase_string = function
  | Trace.Begin -> "B"
  | Trace.End -> "E"
  | Trace.Instant -> "i"
  | Trace.Counter -> "C"

let ts_us ns = Json.Num (float_of_int ns /. 1000.)

let event_json (e : Trace.event) =
  (* the reserved "tid" arg is a track assignment, not event data *)
  let tid, args =
    match List.assoc_opt "tid" e.args with
    | Some n -> (float_of_int n, List.remove_assoc "tid" e.args)
    | None -> (1., e.args)
  in
  let base =
    [ ("name", Json.Str e.name);
      ("cat", Json.Str (if e.cat = "" then "misc" else e.cat));
      ("ph", Json.Str (phase_string e.phase));
      ("ts", ts_us e.ts);
      ("pid", Json.Num 1.);
      ("tid", Json.Num tid) ]
  in
  let scope =
    match e.phase with Trace.Instant -> [ ("s", Json.Str "t") ] | _ -> []
  in
  let args =
    match args with
    | [] -> []
    | l ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) l)) ]
  in
  Json.Obj (base @ scope @ args)

let metadata ?(tid = 1) ~name value =
  Json.Obj
    [ ("name", Json.Str name); ("ph", Json.Str "M"); ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("name", Json.Str value) ]) ]

let to_json ?(process_name = "twine (simulated SGX)") ?(threads = []) t =
  let events = List.map event_json (Trace.events t) in
  let meta =
    metadata ~name:"process_name" process_name
    :: metadata ~name:"thread_name" "virtual clock"
    :: List.map (fun (tid, name) -> metadata ~tid ~name:"thread_name" name) threads
  in
  Json.Obj
    [ ("displayTimeUnit", Json.Str "ns");
      ("traceEvents", Json.Arr (meta @ events));
      ( "otherData",
        Json.Obj
          [ ("recorded", Json.Num (float_of_int (Trace.total t)));
            ("dropped", Json.Num (float_of_int (Trace.dropped t)));
            ("lost", Json.Num (float_of_int (Trace.lost t)));
            ("high_water", Json.Num (float_of_int (Trace.high_water t)));
            ("capacity", Json.Num (float_of_int (Trace.capacity t))) ] ) ]

let to_string ?process_name ?threads t =
  Json.to_string (to_json ?process_name ?threads t)

(* --- folded stacks (flamegraph text format) --- *)

(* One line per distinct call path: "outer;mid;leaf <self-weight>".
   This is the input format of flamegraph.pl / inferno / speedscope.
   Lines are sorted so the output is a canonical, diffable artifact. *)
let folded ?(metric = `Fuel) prof =
  let lines = ref [] in
  Profile.iter prof (fun ~stack ~calls:_ ~self_fuel ~self_cycles ->
      let v = match metric with `Fuel -> self_fuel | `Cycles -> self_cycles in
      if v > 0 then
        lines :=
          (String.concat ";" (List.map (Profile.name prof) stack), v) :: !lines);
  let b = Buffer.create 256 in
  List.iter
    (fun (path, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" path v))
    (List.sort compare !lines);
  Buffer.contents b

let folded_to_file ?metric prof path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (folded ?metric prof))
