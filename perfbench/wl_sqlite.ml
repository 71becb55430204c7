(* Workload [sqlite-pfs]: one TWINE enclave running the SQL engine on
   protected files (Bench_db Twine_rt File), with a dataset about four
   times its page cache. Ops are a seeded mix of 60% point SELECT, 25%
   autocommit single-row UPDATE and 15% short range aggregates, each
   through Bench_db.exec. Every result is checked against the
   benchmark's own model of the committed writes, and the whole table is
   compared with the model at the end. *)

open Common
open Twine_sgx
module Db = Twine_sqldb.Db
module V = Twine_sqldb.Value

let rows = 6000
let payload_bytes = 100
let cache_pages = 90  (* the table is about 360 pages *)
let span = 16

(* Counts per op are taken over this many leading ops of the timed
   phase, which every run reaches, so they repeat exactly for a seed. *)
let exact_ops = 400

let payload a = Printf.sprintf "%0*d" payload_bytes a

type kind = Point | Update | Range

let kind_index = function Point -> 0 | Update -> 1 | Range -> 2

(* The mix, by [kind_index]. Throughput and allocation per statement
   weight the per-kind figures by it, so they do not move with the
   share of each kind a seed happens to draw. *)
let mix = [| 0.60; 0.25; 0.15 |]

let weighted f = (mix.(0) *. f 0) +. (mix.(1) *. f 1) +. (mix.(2) *. f 2)

type op = { kind : kind; key : int; value : int; sql : string }

let gen_op rng =
  let key = Random.State.int rng rows in
  let r = Random.State.float rng 1.0 in
  if r < mix.(0) then { kind = Point; key; value = 0; sql = Printf.sprintf "SELECT b, c FROM t WHERE a = %d" key }
  else if r < mix.(0) +. mix.(1) then
    let value = Random.State.int rng 1_000_000 in
    { kind = Update; key; value; sql = Printf.sprintf "UPDATE t SET b = %d WHERE a = %d" value key }
  else
    { kind = Range; key; value = 0;
      sql = Printf.sprintf "SELECT count(*), sum(b) FROM t WHERE a >= %d AND a < %d" key (key + span) }

(* The model: b of every row, as committed. *)
let initial_b rng = Array.init rows (fun _ -> Random.State.int rng 1_000_000)

let setup b0 =
  let machine = Machine.create ~seed:"perfbench" () in
  let wasm_factor = Twine_serve.Serve.default_config.Twine_serve.Serve.wasm_factor in
  let bdb =
    Twine.Bench_db.create ~machine ~cache_pages ~wasm_factor Twine.Bench_db.Twine_rt
      Twine.Bench_db.File
  in
  let exec sql = ignore (Twine.Bench_db.exec bdb sql) in
  exec "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)";
  exec "BEGIN";
  let buf = Buffer.create 16384 in
  let chunk = 100 in
  let i = ref 0 in
  while !i < rows do
    Buffer.clear buf;
    Buffer.add_string buf "INSERT INTO t VALUES ";
    for a = !i to min rows (!i + chunk) - 1 do
      if a > !i then Buffer.add_char buf ',';
      Printf.bprintf buf "(%d,%d,'%s')" a b0.(a) (payload a)
    done;
    exec (Buffer.contents buf);
    i := !i + chunk
  done;
  exec "COMMIT";
  bdb

let int_of v = match v with V.Int i -> Some (Int64.to_int i) | _ -> None

(* The oracle for one op; [model] is updated on a successful write. *)
let check model op (r : Db.result) =
  match op.kind with
  | Point -> r.Db.rows = [ [ V.Int (Int64.of_int model.(op.key)); V.Text (payload op.key) ] ]
  | Update ->
      if r.Db.affected = 1 then begin
        model.(op.key) <- op.value;
        true
      end
      else false
  | Range -> (
      let hi = min rows (op.key + span) in
      let sum = ref 0 in
      for a = op.key to hi - 1 do
        sum := !sum + model.(a)
      done;
      match r.Db.rows with
      | [ [ c; s ] ] -> int_of c = Some (hi - op.key) && int_of s = Some !sum
      | _ -> false)

let full_table_ok bdb model =
  let rs = Twine.Bench_db.query bdb "SELECT a, b, c FROM t" in
  List.length rs = rows
  && List.for_all
       (function
         | [ V.Int a; V.Int b; V.Text c ] ->
             let a = Int64.to_int a in
             a >= 0 && a < rows && Int64.to_int b = model.(a) && c = payload a
         | _ -> false)
       rs

(* Counter snapshot for the exact per-op counts. *)
type snap = {
  reads : int;
  writes : int;
  hits : int;
  journal : int;
  node_hits : int;
  node_misses : int;
  crypto_events : int;
  crypto_ns : int;
  epc_faults : int;
}

let snap (bdb : Twine.Bench_db.t) =
  let machine = bdb.Twine.Bench_db.machine in
  let reads, writes, hits = Twine_sqldb.Pager.stats (Db.pager bdb.Twine.Bench_db.db) in
  let node_hits, node_misses =
    match bdb.Twine.Bench_db.pfs with
    | Some fs -> Twine_ipfs.Protected_fs.cache_stats fs
    | None -> (0, 0)
  in
  let ledger = Machine.ledger machine in
  { reads; writes; hits;
    journal = Twine_obs.Obs.value machine.Machine.obs "sqldb.journal_write";
    node_hits; node_misses;
    crypto_events = Twine_obs.Ledger.events ledger "ipfs.crypto";
    crypto_ns = Twine_obs.Ledger.ns ledger "ipfs.crypto";
    epc_faults = Epc.faults machine.Machine.epc }

type phase = {
  mutable ops : int;
  mutable failed : int;
  mutable busy : float;  (* raw seconds *)
  lat : Samples.t;  (* op seconds at nominal host speed *)
  kinds : Samples.t array;  (* the same by kind: point, update, range *)
}

let phase () =
  { ops = 0; failed = 0; busy = 0.; lat = Samples.create ();
    kinds = Array.init 3 (fun _ -> Samples.create ()) }

(* Seconds per statement at the mix, at nominal host speed: the per-kind
   mean times weighted by [mix], so every statement's time counts, the
   slow tail of the autocommit UPDATEs included. *)
let per_statement p = weighted (fun k -> mean (Samples.to_array p.kinds.(k)))

(* The leading [exact_ops] ops of a run, traced or not: their words, the
   counters around them, and their virtual latencies. *)
type prefix = {
  mutable n : int;
  alloc : float array;  (* words by kind *)
  count : int array;  (* ops by kind *)
  mutable first : snap option;
  mutable last : snap option;
  vlat : Samples.t;
}

let prefix () =
  { n = 0; alloc = Array.make 3 0.; count = Array.make 3 0; first = None; last = None; vlat = Samples.create () }

type ctx = {
  bdb : Twine.Bench_db.t;
  model : int array;
  rng : Random.State.t;
  bias : float;
  pre : prefix;
  mutable corrupt : bool;  (* plant a wrong model value before the next point read *)
  mutable speed : float;  (* host factor from the latest probe *)
}

(* One op. [probe] runs before it, outside its timing, and [around]
   wraps it; both are spans in the traced run. *)
let one_op ?(probe = fun _ _ -> ()) ?(around = fun _ _ f -> f ()) ctx p =
  let op = gen_op ctx.rng in
  if ctx.corrupt && op.kind = Point then begin
    ctx.model.(op.key) <- ctx.model.(op.key) + 1;
    ctx.corrupt <- false
  end;
  let machine = ctx.bdb.Twine.Bench_db.machine in
  let pre = ctx.pre in
  if pre.n = 0 then pre.first <- Some (snap ctx.bdb);
  probe pre.n op;
  let v0 = Machine.now_ns machine in
  let w0 = words () in
  let t0 = now () in
  let r =
    try Some (around pre.n op (fun () -> Twine.Bench_db.exec ctx.bdb op.sql))
    with Db.Sql_error _ | Twine_sqldb.Parser.Error _ -> None
  in
  let dt = now () -. t0 in
  let a = alloc_since w0 -. ctx.bias in
  p.busy <- p.busy +. dt;
  p.ops <- p.ops + 1;
  Samples.push p.lat (dt /. ctx.speed);
  Samples.push p.kinds.(kind_index op.kind) (dt /. ctx.speed);
  if pre.n < exact_ops then begin
    let k = kind_index op.kind in
    pre.alloc.(k) <- pre.alloc.(k) +. a;
    pre.count.(k) <- pre.count.(k) + 1;
    Samples.push pre.vlat (float_of_int (Machine.now_ns machine - v0));
    pre.n <- pre.n + 1;
    if pre.n = exact_ops then pre.last <- Some (snap ctx.bdb)
  end;
  match r with
  | Some r when check ctx.model op r -> ()
  | _ -> p.failed <- p.failed + 1

(* Set-up (create + populate) is repeated for a steady median; each is
   a fresh database with the same seeded values, and the last one is kept
   for the timed phase. *)
let setups = 5

let run_setups ~seed =
  let times = Array.make setups 0. and last = ref None in
  for i = 0 to setups - 1 do
    (* drop the previous database, so each set-up starts from the same
       collected heap *)
    last := None;
    Gc.compact ();
    let b0 = initial_b (Random.State.make [| seed; 0 |]) in
    let f = sample_host () in
    let t0 = now () in
    let bdb = setup b0 in
    times.(i) <- (now () -. t0) /. f;
    last := Some (bdb, b0)
  done;
  (times, Option.get !last)

(* The sealing primitive the store uses, on one 4 KiB node. *)
let seal_us_per_kib (bdb : Twine.Bench_db.t) =
  let variant =
    match bdb.Twine.Bench_db.pfs with
    | Some fs -> Twine_ipfs.Protected_fs.variant fs
    | None -> Twine_ipfs.Protected_fs.Stock
  in
  Seal_probe.us_per_kib variant

(* The host is probed before every block of this many ops. In the traced
   run, untraced and traced blocks alternate, so both see the same
   database state and host conditions. *)
let block = 50

let run ~seed ~seconds ~trace ~corrupt ~trace_file =
  let setup_s, (bdb, model) = run_setups ~seed in
  let ctx =
    { bdb; model; rng = Random.State.make [| seed; 1 |]; bias = calibrate (); pre = prefix ();
      corrupt; speed = sample_host () }
  in
  let finish failed =
    (* the full-table comparison is one more checked op *)
    (1, failed + if full_table_ok bdb model then 0 else 1)
  in
  if not trace then begin
    let p = phase () in
    while p.busy < seconds || ctx.pre.n < exact_ops do
      ctx.speed <- sample_host ();
      for _ = 1 to block do one_op ctx p done
    done;
    let lat = Array.map (fun s -> s *. 1e6) (Samples.to_array p.lat) in
    let p99, q, beyond = tail lat in
    let extra, failed = finish p.failed in
    { attempted = p.ops + extra; failed;
      notes =
        [ host_note ();
          Printf.sprintf "sqlite-pfs: table of %d pages against a %d-page cache"
            (Twine_sqldb.Pager.n_pages (Db.pager bdb.Twine.Bench_db.db)) cache_pages;
          Printf.sprintf "sqlite-pfs: %d statements; latency_p99_us is p%.0f, %d samples beyond it"
            p.ops q beyond;
          Printf.sprintf "sqlite-pfs: error_rate %.4f"
            (float_of_int failed /. float_of_int (p.ops + extra)) ];
      metrics =
        [ m "setup_s" "s" (median setup_s);
          m "throughput_ops_s" "ops/s" (1. /. per_statement p);
          m "latency_p50_us" "us" (median lat);
          m "latency_p99_us" "us" p99;
          m "alloc_words_per_op" "words"
            (weighted (fun k ->
                 ctx.pre.alloc.(k) /. float_of_int (max 1 ctx.pre.count.(k))));
          m "peak_heap_mb" "MiB" (heap_mb ()) ] }
  end
  else begin
    let spans = Spans.create () in
    let probe i op =
      Spans.span spans ~op:i "sqldb.parse" (fun () -> ignore (Twine_sqldb.Parser.parse op.sql))
    in
    let around i op f =
      Spans.span spans ~op:i
        (match op.kind with
        | Point -> "bench_db.exec.point"
        | Update -> "bench_db.exec.update"
        | Range -> "bench_db.exec.range")
        f
    in
    let pu = phase () and pt = phase () in
    while pu.busy +. pt.busy < seconds || ctx.pre.n < exact_ops do
      ctx.speed <- sample_host ();
      for _ = 1 to block do one_op ctx pu done;
      for _ = 1 to block do one_op ~probe ~around ctx pt done
    done;
    Spans.write spans trace_file;
    let extra, failed = finish (pu.failed + pt.failed) in
    let first = Option.get ctx.pre.first and last = Option.get ctx.pre.last in
    let d f = float_of_int (f last - f first) /. float_of_int exact_ops in
    let ratio h mi =
      let h = h last - h first and n = mi last - mi first in
      if h + n = 0 then 0. else float_of_int h /. float_of_int (h + n)
    in
    let med name = median (Spans.self_us spans name) in
    let vlat = Samples.to_array ctx.pre.vlat in
    let vp99, _, _ = tail vlat in
    let vtotal = Array.fold_left ( +. ) 0. vlat in
    { attempted = pu.ops + pt.ops + extra; failed;
      notes =
        [ Printf.sprintf "sqlite-pfs traced: %d untraced + %d traced statements; spans in %s"
            pu.ops pt.ops trace_file ];
      metrics =
        [ m "sqldb.parse_us" "us" (med "sqldb.parse");
          m "sqldb.point_us" "us" (med "bench_db.exec.point");
          m "sqldb.update_us" "us" (med "bench_db.exec.update");
          m "sqldb.range_us" "us" (med "bench_db.exec.range");
          m "sqldb.cache_hit_ratio" "ratio" (ratio (fun s -> s.hits) (fun s -> s.reads));
          m "sqldb.page_reads_per_op" "count" (d (fun s -> s.reads));
          m "sqldb.page_writes_per_op" "count" (d (fun s -> s.writes));
          m "sqldb.journal_writes_per_op" "count" (d (fun s -> s.journal));
          m "ipfs.node_hit_ratio" "ratio" (ratio (fun s -> s.node_hits) (fun s -> s.node_misses));
          m "ipfs.crypto_events_per_op" "count" (d (fun s -> s.crypto_events));
          m "ipfs.crypto_vns_per_op" "ns" (d (fun s -> s.crypto_ns));
          m "crypto.seal_us_per_kib" "us" (seal_us_per_kib bdb);
          m "sgx.epc_faults_per_op" "count" (d (fun s -> s.epc_faults));
          m "sim_throughput_ops_s" "ops/s" (float_of_int exact_ops /. (vtotal /. 1e9));
          m "sim_p50_us" "us" (median vlat /. 1e3);
          m "sim_p99_us" "us" (vp99 /. 1e3);
          m "bench.trace_overhead_pct" "%" ((per_statement pt /. per_statement pu -. 1.) *. 100.) ] }
  end
