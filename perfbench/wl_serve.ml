(* Workload [serve]: the serving fleet at Serve.default_config shape (8
   enclaves, batch 16, the 6:3:1 kv/point/range read mix, a 768-page
   EPC, retained mode) with the benchmark's seed as config.seed. Each
   round is one Serve.run; the ?prepare hook marks the end of its set-up
   (launch and population), so set-up and serving are timed apart.
   Serve.run is an open loop in virtual time (200k req/s offered); the
   benchmark calls it in a closed loop, one round after another. *)

open Common
open Twine_sgx
module Serve = Twine_serve.Serve
module Workload = Twine_serve.Workload
module Db = Twine_sqldb.Db
module V = Twine_sqldb.Value

let requests = 6000

let config seed =
  { Serve.default_config with
    Serve.requests;
    seed = Printf.sprintf "perfbench-%d" seed }

type round = {
  setup_s : float;  (* raw *)
  serving_s : float;  (* raw *)
  f_setup : float;  (* host factors probed around set-up ... *)
  f_serving : float;  (* ... and around the serving phase *)
  alloc : float;  (* minor words allocated in the serving phase *)
  stats : Serve.stats;
}

(* One Serve.run. The host is probed before it, in the [prepare] hook
   (which runs between population and replay and must not touch the
   machine's clock; the probe does not) and after it. With [spans], the
   round is two spans split at [prepare]: set-up (launch and population)
   and serving; the probe lies between them. *)
let round ?spans cfg =
  (* start from a collected heap, so one round's garbage is not
     collected inside the next round's timing *)
  Gc.compact ();
  let enter name = Option.iter (fun s -> Spans.enter s ~op:(-1) name) spans in
  let leave () = Option.iter Spans.leave spans in
  let f0 = sample_host () in
  let t_prep = ref 0. and w_prep = ref 0. and f1 = ref 1. and t0_shift = ref 0. in
  let t0 = now () in
  enter "serve.setup";
  let stats =
    Serve.run cfg ~prepare:(fun _ ->
        leave ();
        let t = now () in
        f1 := sample_host ();
        (* the probe's own time is not set-up or serving *)
        t0_shift := now () -. t;
        enter "serve.serving";
        t_prep := now ();
        w_prep := words ())
  in
  leave ();
  let t1 = now () in
  let alloc = alloc_since !w_prep in
  let f2 = sample_host () in
  { setup_s = !t_prep -. !t0_shift -. t0; serving_s = t1 -. !t_prep;
    f_setup = (f0 +. !f1) /. 2.; f_serving = (!f1 +. f2) /. 2.; alloc; stats }

(* Exact, seed-determined values of a round: two rounds of one config
   must agree on all of them. *)
let ledger_events (st : Serve.stats) =
  List.fold_left
    (fun acc (_, e) -> acc + e.Twine_obs.Ledger.events)
    0 st.Serve.ledger.Twine_obs.Ledger.accounts

let ledger_account (st : Serve.stats) name =
  match List.assoc_opt name st.Serve.ledger.Twine_obs.Ledger.accounts with
  | Some e -> e
  | None -> { Twine_obs.Ledger.ns = 0; events = 0 }

let components (st : Serve.stats) =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 st.Serve.requests_log in
  let b f = sum (fun r -> f r.Serve.breakdown) in
  [ ("transition", b (fun b -> b.Serve.transition_ns));
    ("exec", b (fun b -> b.Serve.exec_ns));
    ("pager", b (fun b -> b.Serve.pager_ns));
    ("epc_fault", b (fun b -> b.Serve.epc_fault_ns));
    ("epc_evict", b (fun b -> b.Serve.epc_evict_ns));
    ("crypto", b (fun b -> b.Serve.crypto_ns));
    ("queue", sum Serve.queue_ns) ]

let exact (st : Serve.stats) =
  [ st.Serve.served; st.shed; st.timed_out; st.failed; st.elapsed_ns; st.p50_ns; st.p99_ns;
    st.batches; st.ecalls; st.epc_faults; st.epc_evictions; st.cross_refaults;
    st.queue_depth_hwm; ledger_events st ]
  @ List.map snd (components st)

(* The oracle of a round: zero attribution residue, balanced books,
   every request accounted for by exactly one outcome, all of them
   served. [corrupt] expects one request more than were sent. Returns
   the number of failed requests. *)
let failures ~corrupt (cfg : Serve.config) (st : Serve.stats) =
  let expected = cfg.Serve.requests + if corrupt then 1 else 0 in
  let l = st.Serve.ledger in
  let conserved =
    st.Serve.attribution_residue_ns = 0
    && l.Twine_obs.Ledger.elapsed_ns = l.Twine_obs.Ledger.booked_ns
    && Twine_obs.Ledger.balanced (Machine.ledger st.Serve.machine)
    && st.served + st.shed + st.timed_out + st.failed = expected
  in
  if conserved then cfg.Serve.requests - st.served else cfg.Serve.requests

(* --- the traced replay: the same arrivals against one worker-shaped
   database built through public calls, timing parse and exec per
   request --- *)

let payload cfg j = Printf.sprintf "%0*d" cfg.Serve.payload_bytes j

let sql_of = function
  | Workload.Kv_get k -> Printf.sprintf "SELECT v FROM kv WHERE k = %d" k
  | Workload.Sql_point k -> Printf.sprintf "SELECT b, c FROM t WHERE a = %d" k
  | Workload.Sql_range (lo, span) ->
      Printf.sprintf "SELECT count(*), sum(b) FROM t WHERE a >= %d AND a < %d" lo (lo + span)

(* Expected rows, from the population rule below, not from the engine. *)
let expected cfg = function
  | Workload.Kv_get k -> [ [ V.Text (payload cfg k) ] ]
  | Workload.Sql_point k -> [ [ V.Int (Int64.of_int (k * 7)); V.Text (payload cfg k) ] ]
  | Workload.Sql_range (lo, span) ->
      let hi = min cfg.Serve.rows (lo + span) in
      let sum = ref 0 in
      for a = lo to hi - 1 do
        sum := !sum + (a * 7)
      done;
      [ [ V.Int (Int64.of_int (hi - lo)); V.Int (Int64.of_int !sum) ] ]

let worker cfg =
  let machine = Machine.create ~epc_bytes:cfg.Serve.epc_bytes ~seed:cfg.Serve.seed () in
  let config =
    { Twine.Runtime.default_config with
      Twine.Runtime.heap_bytes = 1024 * 1024;
      cache_nodes = 48 }
  in
  let rt = Twine.Runtime.create ~config machine in
  let e = Twine.Runtime.enclave rt in
  let hooks = Twine_sqldb.Pager.default_hooks () in
  let base = Enclave.reserve e (1 lsl 33) in
  hooks.Twine_sqldb.Pager.on_access <-
    (fun page_no ->
      Enclave.touch e
        ~addr:(base + (page_no * Twine_sqldb.Pager.page_size))
        ~len:Twine_sqldb.Pager.page_size);
  let db =
    Db.open_db
      ~vfs:(Twine.Bench_db.pfs_svfs (Twine.Runtime.fs rt))
      ~cache_pages:cfg.Serve.cache_pages ~hooks ~obs:machine.Machine.obs "serve.db"
  in
  let exec sql = ignore (Db.exec db sql) in
  exec "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)";
  exec "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)";
  exec "BEGIN";
  for j = 0 to cfg.Serve.rows - 1 do
    exec (Printf.sprintf "INSERT INTO kv VALUES (%d,'%s')" j (payload cfg j));
    exec (Printf.sprintf "INSERT INTO t VALUES (%d,%d,'%s')" j (j * 7) (payload cfg j))
  done;
  exec "COMMIT";
  (rt, db)

type replay = {
  r_failed : int;
  parse_us : float array;
  point_us : float array;
  range_us : float array;
  sql_us_per_req : float;  (* mean untraced Db.exec us, kinds weighted as sent *)
  exec_us_traced : float;  (* the same, traced *)
}

let kind_index = function
  | Workload.Kv_get _ -> 0
  | Workload.Sql_point _ -> 1
  | Workload.Sql_range _ -> 2

(* Batches alternate: untraced ones time each Db.exec with two clock
   reads; traced ones also probe Parser.parse and wrap Db.exec in a span
   inside the same clock reads, so the difference of the two means is
   the tracing overhead. *)
let replay spans cfg arrivals =
  let rt, db = Spans.span spans ~op:(-1) "replay.setup" (fun () -> worker cfg) in
  let failed = ref 0 in
  let n = Array.length arrivals in
  (* exec seconds by [kind_index]; 0: untraced, 1: traced *)
  let secs = Array.init 2 (fun _ -> Array.make 3 0.) in
  let count = Array.init 2 (fun _ -> Array.make 3 0) in
  let i = ref 0 and traced = ref false in
  while !i < n do
    let hi = min n (!i + cfg.Serve.batch) in
    let tr = if !traced then 1 else 0 in
    Twine.Runtime.serve rt (fun _ ->
        for j = !i to hi - 1 do
          let a = arrivals.(j) in
          let sql = sql_of a.Workload.req in
          let k = kind_index a.Workload.req in
          Db.reset_work db;
          let op = a.Workload.rid in
          let exec () =
            if !traced then begin
              Spans.span spans ~op "sqldb.parse" (fun () -> ignore (Twine_sqldb.Parser.parse sql));
              let name = if k = 2 then "db.exec.range" else "db.exec.point" in
              let t0 = now () in
              let r = Spans.span spans ~op name (fun () -> Db.exec db sql) in
              (r, now () -. t0)
            end
            else
              let t0 = now () in
              let r = Db.exec db sql in
              (r, now () -. t0)
          in
          match exec () with
          | r, dt ->
              secs.(tr).(k) <- secs.(tr).(k) +. dt;
              count.(tr).(k) <- count.(tr).(k) + 1;
              if r.Db.rows <> expected cfg a.Workload.req then incr failed
          | exception (Db.Sql_error _ | Twine_sqldb.Parser.Error _) -> incr failed
        done);
    traced := not !traced;
    i := hi
  done;
  (* mean exec seconds of one mode, each kind weighted by its share of
     all the requests, so the two modes compare on the same mix *)
  let per_req tr =
    let total = ref 0. in
    for k = 0 to 2 do
      let c = count.(0).(k) + count.(1).(k) in
      if count.(tr).(k) > 0 then
        total := !total +. (float_of_int c *. secs.(tr).(k) /. float_of_int count.(tr).(k))
    done;
    !total /. float_of_int (max 1 n) *. 1e6
  in
  { r_failed = !failed;
    parse_us = Spans.self_us spans "sqldb.parse";
    point_us = Spans.self_us spans "db.exec.point";
    range_us = Spans.self_us spans "db.exec.range";
    (* untraced, as is the fleet's host time it is set against *)
    sql_us_per_req = per_req 0;
    exec_us_traced = per_req 1 }

(* Host timings of one round; its stats are dropped once checked. *)
type timing = {
  t_setup : float;  (* at nominal host speed *)
  t_serving : float;  (* at nominal host speed *)
  t_alloc : float;
  t_raw_us : float;  (* raw host us per request *)
}

let us_per_req (cfg : Serve.config) t = t.t_serving *. 1e6 /. float_of_int cfg.Serve.requests

(* Untraced rounds until [seconds] of round time have passed (at least
   one). Every round must match the first's exact values; a round that
   does not counts all its requests as failed. *)
let rounds ~seconds ~corrupt (cfg : Serve.config) =
  let acc = ref [] and spent = ref 0. and failed = ref 0 and first = ref None in
  while !acc = [] || !spent < seconds do
    let r = round cfg in
    spent := !spent +. r.setup_s +. r.serving_s;
    let e = exact r.stats in
    let f = failures ~corrupt:(corrupt && !acc = []) cfg r.stats in
    (match !first with
    | Some e0 when e0 <> e -> failed := !failed + cfg.Serve.requests
    | Some _ -> failed := !failed + f
    | None ->
        first := Some e;
        failed := !failed + f);
    acc :=
      { t_setup = r.setup_s /. r.f_setup; t_serving = r.serving_s /. r.f_serving;
        t_alloc = r.alloc;
        t_raw_us = r.serving_s *. 1e6 /. float_of_int cfg.Serve.requests }
      :: !acc
  done;
  (List.rev !acc, !failed)

let run ~seed ~seconds ~trace ~corrupt ~trace_file =
  let cfg = config seed in
  if not trace then begin
    let rs, failed = rounds ~seconds ~corrupt cfg in
    let per_req = Array.of_list (List.map (us_per_req cfg) rs) in
    let p99, q, beyond = tail per_req in
    let n = List.length rs in
    let total_req = n * cfg.Serve.requests in
    { attempted = total_req; failed;
      notes =
        [ Printf.sprintf
            "serve: %d rounds of %d requests; latency_* are host us/request per round (latency_p99_us is p%.0f, %d rounds beyond it)"
            n cfg.Serve.requests q beyond;
          Printf.sprintf "serve: error_rate %.4f" (float_of_int failed /. float_of_int total_req);
          host_note ();
          "serve: raw host us per request by round: "
          ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" r.t_raw_us) rs) ];
      metrics =
        [ m "setup_s" "s" (median (Array.of_list (List.map (fun r -> r.t_setup) rs)));
          m "throughput_ops_s" "ops/s" (1e6 /. median per_req);
          m "latency_p50_us" "us" (median per_req);
          m "latency_p99_us" "us" p99;
          m "alloc_words_per_op" "words"
            (median (Array.of_list (List.map (fun r -> r.t_alloc /. float_of_int cfg.Serve.requests) rs)));
          m "peak_heap_mb" "MiB" (heap_mb ()) ] }
  end
  else begin
    let rs, failed_u = rounds ~seconds:(seconds /. 2.) ~corrupt cfg in
    let spans = Spans.create () in
    let arrivals =
      Spans.span spans ~op:(-1) "serve.generate" (fun () ->
          Workload.generate ~seed:cfg.Serve.seed (Serve.shape_of cfg))
    in
    let tr = round ~spans cfg in
    let failed_t = failures ~corrupt:false cfg tr.stats in
    let f_replay = sample_host () in
    let rp = replay spans cfg arrivals in
    Spans.write spans trace_file;
    let st = tr.stats in
    let nreq = float_of_int cfg.Serve.requests in
    let served = float_of_int (max 1 st.Serve.served) in
    (* raw host time per request, and the same at nominal host speed:
       the fleet overhead and the tracing overhead compare figures taken
       at different moments, so they use the speed-normalised ones *)
    let host_us = median (Array.of_list (List.map (fun r -> r.t_raw_us) rs)) in
    let host_us_n = median (Array.of_list (List.map (us_per_req cfg) rs)) in
    let crypto = ledger_account st "ipfs.crypto" in
    { attempted = (List.length rs + 1) * cfg.Serve.requests + Array.length arrivals;
      failed = failed_u + failed_t + rp.r_failed;
      notes =
        [ host_note ();
          Printf.sprintf "serve traced: %d untraced rounds + 1 traced round + replay of %d requests; spans in %s"
            (List.length rs) (Array.length arrivals) trace_file;
          Printf.sprintf "serve replay: mean Db.exec %.2f us untraced, %.2f us traced"
            rp.sql_us_per_req rp.exec_us_traced ];
      metrics =
        [ m "sgx.transitions_per_req" "count" st.Serve.transitions_per_request;
          m "sgx.epc_faults" "count" (float_of_int st.Serve.epc_faults);
          m "sgx.epc_evictions" "count" (float_of_int st.Serve.epc_evictions);
          m "serve.req_per_batch" "count" (nreq /. float_of_int (max 1 st.Serve.batches));
          m "serve.cross_refaults" "count" (float_of_int st.Serve.cross_refaults);
          m "serve.queue_depth_hwm" "count" (float_of_int st.Serve.queue_depth_hwm) ]
        @ List.map
            (fun (name, ns) -> m ("serve.vns." ^ name) "ns" (float_of_int ns /. served))
            (components st)
        @ [ m "serve.host_us_per_req" "us" host_us;
            m "serve.generate_us_per_req" "us"
              (Spans.total_self_s spans "serve.generate" *. 1e6 /. nreq);
            m "serve.sql_us_per_req" "us" rp.sql_us_per_req;
            m "serve.fleet_overhead_us_per_req" "us"
              (host_us_n -. (rp.sql_us_per_req /. f_replay));
            m "obs.ledger_events_per_req" "count" (float_of_int (ledger_events st) /. nreq);
            m "sqldb.parse_us" "us" (median rp.parse_us);
            m "sqldb.point_us" "us" (median rp.point_us);
            m "sqldb.range_us" "us" (median rp.range_us);
            m "ipfs.crypto_events_per_op" "count" (float_of_int crypto.Twine_obs.Ledger.events /. nreq);
            m "ipfs.crypto_vns_per_op" "ns" (float_of_int crypto.Twine_obs.Ledger.ns /. nreq);
            m "crypto.seal_us_per_kib" "us"
              (Seal_probe.us_per_kib Twine.Runtime.default_config.Twine.Runtime.ipfs_variant);
            m "sim_throughput_ops_s" "ops/s" st.Serve.goodput_rps;
            m "sim_p50_us" "us" (float_of_int st.Serve.p50_ns /. 1e3);
            m "sim_p99_us" "us" (float_of_int st.Serve.p99_ns /. 1e3);
            m "bench.trace_overhead_pct" "%" ((rp.exec_us_traced /. rp.sql_us_per_req -. 1.) *. 100.) ] }
  end
