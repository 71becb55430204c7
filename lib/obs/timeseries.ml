(* Tumbling windows on the virtual clock.

   Per track, exactly one window is open at a time; observations land
   in the open window and the first timestamp at or past its boundary
   closes it (plus any skipped windows, zero-filled) before opening
   the covering one. Because the virtual clock is deterministic, every
   run closes the same windows at the same instants with the same
   contents — the retained and streaming serve modes produce the same
   series byte for byte.

   A closing window keeps only its reduced row (counts, sums, sketch
   quantiles, component sums, probed gauges); its latency sketch is
   merged into the track's cumulative sketch and dropped. Memory is
   O(closed windows + tracks), independent of observation count. *)

type window = {
  w_index : int;
  w_start_ns : int;
  w_end_ns : int;
  w_count : int;
  w_sum_ns : int;
  w_max_ns : int;
  w_p50_ns : int;
  w_p99_ns : int;
  w_overs : int;
  w_comps : (string * int) list;
  w_gauges : (string * int) list;
}

type cell = {
  c_index : int;
  mutable c_overs : int;
  c_sketch : Sketch.t;
  c_comps : (string, int ref) Hashtbl.t;
}

type track_state = {
  mutable tr_cur : cell;
  mutable tr_closed : window list;  (* newest first *)
  mutable tr_cum : Sketch.t;
}

type t = {
  t0 : int;
  window_ns : int;
  threshold_ns : int option;
  probe : (track:string -> (string * int) list) option;
  on_close : (track:string -> window -> unit) option;
  by_track : (string, track_state) Hashtbl.t;
}

let create ?threshold_ns ?probe ?on_close ~t0 ~window_ns () =
  if window_ns <= 0 then invalid_arg "Timeseries.create: window_ns <= 0";
  { t0; window_ns; threshold_ns; probe; on_close; by_track = Hashtbl.create 8 }

let fresh_cell index =
  {
    c_index = index;
    c_overs = 0;
    c_sketch = Sketch.create ();
    c_comps = Hashtbl.create 8;
  }

let track_state t name =
  match Hashtbl.find_opt t.by_track name with
  | Some st -> st
  | None ->
      let st =
        { tr_cur = fresh_cell 0; tr_closed = []; tr_cum = Sketch.create () }
      in
      Hashtbl.add t.by_track name st;
      st

let close_cell t name st =
  let c = st.tr_cur in
  let comps =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) c.c_comps []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let gauges =
    match t.probe with Some p -> p ~track:name | None -> []
  in
  let q p = Option.value (Sketch.quantile c.c_sketch p) ~default:0 in
  let w =
    {
      w_index = c.c_index;
      w_start_ns = t.t0 + (c.c_index * t.window_ns);
      w_end_ns = t.t0 + ((c.c_index + 1) * t.window_ns);
      w_count = Sketch.count c.c_sketch;
      w_sum_ns = Sketch.sum c.c_sketch;
      w_max_ns = Sketch.vmax c.c_sketch;
      w_p50_ns = q 0.5;
      w_p99_ns = q 0.99;
      w_overs = c.c_overs;
      w_comps = comps;
      w_gauges = gauges;
    }
  in
  st.tr_closed <- w :: st.tr_closed;
  st.tr_cum <- Sketch.merge st.tr_cum c.c_sketch;
  st.tr_cur <- fresh_cell (c.c_index + 1);
  match t.on_close with Some f -> f ~track:name w | None -> ()

(* Close every window with index < upto, zero-filling skipped ones. *)
let advance_track t name st ~upto =
  while st.tr_cur.c_index < upto do
    close_cell t name st
  done

let record t ~now ~track ~latency_ns ?(comps = []) () =
  let idx = (now - t.t0) / t.window_ns in
  let st = track_state t track in
  if idx < st.tr_cur.c_index then
    invalid_arg "Timeseries.record: timestamp before the open window";
  advance_track t track st ~upto:idx;
  let c = st.tr_cur in
  (match t.threshold_ns with
  | Some thr when latency_ns > thr -> c.c_overs <- c.c_overs + 1
  | _ -> ());
  Sketch.insert c.c_sketch latency_ns;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt c.c_comps k with
      | Some r -> r := !r + v
      | None -> Hashtbl.add c.c_comps k (ref v))
    comps

let sorted_tracks t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.by_track []
  |> List.sort String.compare

let finish t ~now =
  if now > t.t0 then begin
    let last = (now - 1 - t.t0) / t.window_ns in
    List.iter
      (fun name ->
        let st = Hashtbl.find t.by_track name in
        advance_track t name st ~upto:(last + 1))
      (sorted_tracks t)
  end

let windows t ~track =
  match Hashtbl.find_opt t.by_track track with
  | Some st -> List.rev st.tr_closed
  | None -> []

let tracks t = sorted_tracks t

let sketch t ~track =
  match Hashtbl.find_opt t.by_track track with
  | Some st -> Some st.tr_cum
  | None -> None
