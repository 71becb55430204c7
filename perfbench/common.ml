(* Shared plumbing of the host-time benchmark: the host clock, allocation
   windows, order statistics, the metric record every workload returns,
   and the span recorder of the traced run. *)

let now = Unix.gettimeofday

(* --- allocation windows ---

   Words allocated in the minor heap ([Gc.minor_words]). On OCaml 5.1
   [minor + major - promoted] from [Gc.counters] is not exact: the major
   and promoted counters are flushed at different times, so the same op
   reads differently from run to run (and can read below its minor
   words alone). Minor words repeat exactly for a seed. Blocks larger
   than 256 words, allocated directly in the major heap, are not
   counted. Each [now ()] in a window boxes a float; [calibrate ()]
   measures that bias on an empty window with the two clock reads a
   timed op makes, and [alloc_since w0 -. bias] is then exactly the
   op's own allocation. *)

let words () = Gc.minor_words ()

let alloc_since w0 = words () -. w0

let calibrate () =
  let sample () =
    let w0 = words () in
    ignore (Sys.opaque_identity (now ()));
    ignore (Sys.opaque_identity (now ()));
    alloc_since w0
  in
  ignore (sample ());
  sample ()

(* --- order statistics --- *)

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank quantile of a non-empty sample. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile a 0.5

(* The tail percentile the sample can support: the highest of p99, p98,
   p95, p90 that still leaves at least ten samples above it; with fewer
   than a hundred samples, the upper quartile (a maximum of a handful of
   samples would only measure the host's worst moment). Returns (value,
   percentile, samples beyond it). *)
let tail a =
  let n = Array.length a in
  let at q = (quantile a q, q *. 100., n - int_of_float (Float.ceil (q *. float_of_int n))) in
  let rec pick = function
    | q :: rest ->
        let (_, _, beyond) as r = at q in
        if beyond >= 10 then r else pick rest
    | [] -> at 0.75
  in
  pick [ 0.99; 0.98; 0.95; 0.90 ]

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let geomean l =
  match l with
  | [] -> 0.
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

(* Growable float sample buffer: [push] does not allocate once the
   backing array has room, so it can sit inside a measured window. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

(* --- host speed ---

   The host this runs on is shared, and its speed drifts by up to 1.8x
   over minutes (another tenant's load; single runs see either state).
   A fixed reference computation, written here and calling nothing of
   the program under test, is timed between blocks of work. Host-time
   metrics are reported at the nominal speed: scaled by
   [probe_nominal_s / median probe time] of the run. The raw figures and
   the factor are printed in the notes. *)

let probe_nominal_s = 0.025

let probe_table = Hashtbl.create 65536
let probe_floats = Array.make 131072 0.

(* String formatting and hashing, table churn over a few MiB (allocation,
   pointer chasing, cache misses) and a float-array sweep: the kinds of
   work the workloads do, in stdlib code only. The table is emptied at
   the end as well, so nothing the probe builds stays live in the
   measured work that follows it. *)
let probe () =
  let t0 = now () in
  Hashtbl.reset probe_table;
  for i = 0 to 39_999 do
    Hashtbl.replace probe_table (Printf.sprintf "k%d" (i * 7919 mod 100_003)) i
  done;
  let acc = ref 0 in
  for i = 0 to 39_999 do
    match Hashtbl.find_opt probe_table (Printf.sprintf "k%d" (i * 5)) with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  let a = probe_floats in
  for _ = 1 to 4 do
    for i = 1 to Array.length a - 1 do
      Array.unsafe_set a i ((Array.unsafe_get a (i - 1) *. 0.5) +. float_of_int (i land 255))
    done
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = now () -. t0 in
  Hashtbl.reset probe_table;
  dt

let probes = ref []

(* Probe the host now; returns raw seconds per nominal second. *)
let sample_host () =
  let t = median [| probe (); probe (); probe () |] in
  probes := t :: !probes;
  t /. probe_nominal_s

(* Raw seconds per nominal second; 1.0 on a host at nominal speed. *)
let host_factor () =
  match !probes with
  | [] -> 1.
  | l -> median (Array.of_list l) /. probe_nominal_s

let host_note () =
  Printf.sprintf "host: %d speed probes, median %.3f ms; time metrics scaled by 1/%.4f to nominal speed"
    (List.length !probes) (host_factor () *. probe_nominal_s *. 1e3) (host_factor ())

let heap_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.

(* --- results --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* --- spans of the traced run ---

   One record per layer call, kept in memory and written out at exit.
   Calls nest strictly (one thread, one client), so a span's children
   are exactly the spans opened while it is on top of the stack and its
   self time is its duration minus the sum of its children's. *)
module Spans = struct
  type span = {
    id : int;
    op : int;
    parent : int;  (* -1 at the root of an op *)
    sname : string;
    t0 : float;
    mutable t1 : float;
    mutable child : float;
  }

  type t = { mutable spans : span list; mutable stack : span list; mutable next : int }

  let create () = { spans = []; stack = []; next = 0 }

  let enter t ~op sname =
    let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
    let s = { id = t.next; op; parent; sname; t0 = now (); t1 = 0.; child = 0. } in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    t.spans <- s :: t.spans

  let leave t =
    match t.stack with
    | s :: rest ->
        s.t1 <- now ();
        t.stack <- rest;
        (match rest with p :: _ -> p.child <- p.child +. (s.t1 -. s.t0) | [] -> ())
    | [] -> invalid_arg "Spans.leave: no open span"

  let span t ~op sname f =
    enter t ~op sname;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e

  let self s = s.t1 -. s.t0 -. s.child

  (* Self times in microseconds of the spans with this name, in order. *)
  let self_us t sname =
    List.rev t.spans
    |> List.filter (fun s -> s.sname = sname)
    |> List.map (fun s -> self s *. 1e6)
    |> Array.of_list

  let total_self_s t sname =
    List.fold_left (fun acc s -> if s.sname = sname then acc +. self s else acc) 0. t.spans

  (* Chrome trace-event JSON ("X" complete events, microsecond
     timestamps), loadable in Perfetto / chrome://tracing. *)
  let write t path =
    let oc = open_out path in
    let base = match List.rev t.spans with s :: _ -> s.t0 | [] -> 0. in
    output_string oc "{\"traceEvents\":[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"op\":%d,\"parent\":%d,\"self_us\":%.3f}}\n"
          (if i = 0 then "" else ",")
          s.sname ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.op s.parent
          (self s *. 1e6))
      (List.rev t.spans);
    output_string oc "]}\n";
    close_out oc
end
