(* Deterministic multi-enclave serving simulator.

   A fleet of TWINE runtimes shares ONE simulated machine — one virtual
   clock, one EPC, one ledger — so the fleet contends for the Enclave
   Page Cache exactly as co-located enclaves do on real hardware
   (paper §III-A/V-D). The scheduler is run-to-completion on the single
   simulated core: it round-robins over per-enclave FIFO queues, lifts
   up to [batch] queued requests behind a single ECALL
   ({!Twine.Runtime.serve}), and advances the clock only through
   [Machine.charge] — so the conservation audit covers the serving phase
   and a (seed, config) pair replays to a byte-identical ledger.

   Batching is the measurement the paper's §V transition costs motivate:
   an enclave crossing costs ~13,100 cycles each way, so N coalesced
   requests pay 2 crossings instead of 2N. Protected-FS work triggered
   inside the batch nests for free (nested ECALLs charge nothing), which
   is what makes the amortisation visible in [sgx.transition.ecall].

   -- per-request attribution --

   Every arrival carries a request id (its index in the workload). While
   a request is being served, a {!Twine_obs.Ledger} tap routes EVERY
   booking into that request's cycle breakdown; bookings raised inside a
   batch but outside any single request (the batch's entry/exit ECALL
   crossings) accumulate per account and are split across the batch's
   requests (equal integer shares, remainder to the first request);
   bookings outside any batch (scheduler idle) land in a phase-level
   bucket. Because the clock only advances through [Machine.charge] and
   every charge hits the tap exactly once, the slices satisfy a
   structural conservation law with NO residue:

     sum over requests of attributed_ns  +  unattributed_ns (idle)
       =  serving-phase booked total  =  serving-phase elapsed time

   and per request: latency = queue wait + own service time, where the
   service time equals the request's direct (pre-overhead-share)
   attribution exactly. *)

open Twine_sgx
open Twine_sqldb

type config = {
  enclaves : int;
  requests : int;
  batch : int;  (* max requests coalesced behind one ECALL; 1 = unbatched *)
  seed : string;
  mean_gap_ns : int;
  rows : int;
  span : int;
  payload_bytes : int;
  cache_pages : int;
  epc_bytes : int;
  mix : Workload.mix;
  wasm_factor : float;
      (* pinned, never wall-clock calibrated: reproducibility first *)
  retain_requests : bool;
      (* keep the per-request log (blame, exact percentiles); --stream
         turns it off and the run holds O(windows + sketch) memory *)
  window_ns : int;  (* tumbling-window period when no SLO supplies one *)
  slo : Twine_obs.Slo.spec option;
  (* -- failure-domain layer -- *)
  chaos : Twine_sim.Chaos.spec option;
      (* seeded fault schedule armed for the serving phase only; windows
         in the spec are relative to the phase start *)
  deadline_ns : int;  (* client gives up this long after arrival; 0 = off *)
  retries : int;  (* requeues allowed per request after a failed batch *)
  backoff_ns : int;
      (* retry backoff base; attempt k waits base * 2^(k-1), capped at
         [backoff_cap_factor] * base *)
  shed_depth : int;  (* admission control: shed when a queue is this deep *)
}

let default_config =
  {
    enclaves = 8;
    requests = 100_000;
    batch = 16;
    seed = "twine-serve";
    mean_gap_ns = 5_000;
    rows = 512;
    span = 16;
    payload_bytes = 96;
    cache_pages = 256;
    epc_bytes = 768 * 4096;
    mix = Workload.default_mix;
    wasm_factor = 2.5;
    retain_requests = true;
    window_ns = 50_000_000;
    slo = None;
    chaos = None;
    deadline_ns = 0;
    retries = 2;
    backoff_ns = 100_000;
    shed_depth = 0;
  }

(* Virtual ns per abstract SQL work unit, before the Wasm factor (the
   same rate as {!Twine.Bench_db.create}'s default). *)
let ns_per_work = 60.

(* Exponential retry backoff stops growing at this multiple of the base
   (before jitter): 5 ms at the default 100 us base. *)
let backoff_cap_factor = 50

(* Period of the virtual-time metrics sampler (per-enclave queue depth,
   EPC residency and completed requests as Perfetto counter tracks). *)
let sample_every_ns = 1_000_000

(* Failover orchestration costs (virtual ns, pinned): the host-side work
   of detecting an aborted enclave, EREMOVE-ing its pages, relaunching a
   replacement and re-opening its durable state. The big costs — enclave
   launch (EADD/EEXTEND) and protected-file crash recovery — are charged
   by the layers that do the work; these are the scheduler's own steps. *)
let failover_detect_ns = 5_000
let failover_teardown_base_ns = 20_000
let failover_teardown_page_ns = 150
let failover_relaunch_ns = 50_000
let failover_recover_ns = 20_000

let shape_of (c : config) : Workload.shape =
  {
    Workload.enclaves = c.enclaves;
    requests = c.requests;
    mean_gap_ns = c.mean_gap_ns;
    rows = c.rows;
    span = c.span;
    mix = c.mix;
  }

(* --- per-request records --- *)

type breakdown = {
  mutable transition_ns : int;  (* sgx.transition.* *)
  mutable exec_ns : int;  (* serve.exec *)
  mutable pager_ns : int;  (* serve.pager *)
  mutable epc_fault_ns : int;
  mutable epc_evict_ns : int;
  mutable crypto_ns : int;  (* ipfs.crypto + mee.* *)
  mutable other_ns : int;  (* everything else (alloc, ipfs.io, ...) *)
}

let zero_breakdown () =
  { transition_ns = 0; exec_ns = 0; pager_ns = 0; epc_fault_ns = 0;
    epc_evict_ns = 0; crypto_ns = 0; other_ns = 0 }

let credit b account ns =
  if account = "serve.exec" then b.exec_ns <- b.exec_ns + ns
  else if account = "serve.pager" then b.pager_ns <- b.pager_ns + ns
  else if account = "epc.fault" then b.epc_fault_ns <- b.epc_fault_ns + ns
  else if account = "epc.evict" then b.epc_evict_ns <- b.epc_evict_ns + ns
  else if String.length account >= 14 && String.sub account 0 14 = "sgx.transition"
  then b.transition_ns <- b.transition_ns + ns
  else if
    account = "ipfs.crypto"
    || (String.length account >= 4 && String.sub account 0 4 = "mee.")
  then b.crypto_ns <- b.crypto_ns + ns
  else b.other_ns <- b.other_ns + ns

let breakdown_total b =
  b.transition_ns + b.exec_ns + b.pager_ns + b.epc_fault_ns + b.epc_evict_ns
  + b.crypto_ns + b.other_ns

(* How a request left the system. [Served] is the only outcome that
   counts toward goodput; the others are first-class records too, so
   every admitted rid appears exactly once in the request log and the
   loop's completion count is the sum of the outcome counts. *)
type outcome =
  | Served
  | Shed  (* fast-failed at admission (queue depth) *)
  | Timed_out  (* client deadline passed while queued or backing off *)
  | Failed  (* retry budget exhausted after enclave faults *)

let outcome_name = function
  | Served -> "served"
  | Shed -> "shed"
  | Timed_out -> "timeout"
  | Failed -> "failed"

type request = {
  rid : int;
  mutable enclave : int;
  kind : string;
  arrival_ns : int;
  mutable start_ns : int;
  mutable finish_ns : int;
  mutable outcome : outcome;
  mutable attempts : int;
      (* dispatches into a batch (0 for requests shed/expired unserved) *)
  mutable retry_wait_ns : int;  (* backoff delay scheduled before retries *)
  mutable breakdown : breakdown;
  mutable interference : (int * int) list;
      (* evictor enclave -> cross-enclave refaults this request paid for,
         sorted by enclave id once the request completes *)
}

let latency_ns r = r.finish_ns - r.arrival_ns
let queue_ns r = r.start_ns - r.arrival_ns
let service_ns r = r.finish_ns - r.start_ns
let attributed_ns r = breakdown_total r.breakdown

type stats = {
  requests : int;
  enclaves : int;
  batch : int;
  elapsed_ns : int;  (* serving-phase virtual time (setup books dropped) *)
  idle_ns : int;
  throughput_rps : float;
  mean_ns : int;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
  batches : int;
  ecalls : int;
  ocalls : int;
  transitions_per_request : float;
  ecall_ns : int;  (* ledger [sgx.transition.ecall], serving phase *)
  epc_faults : int;
  epc_evictions : int;
  epc_limit_pages : int;
  epc_resident_pages : int;
  evictions_by_enclave : (int * int) list;
      (* (enclave id, times one of its pages was the victim) *)
  (* per-request attribution *)
  requests_log : request array;  (* indexed by rid *)
  attributed_ns : int;  (* sum over requests of their cycle slices *)
  unattributed_ns : int;  (* booked outside any batch: scheduler idle *)
  failover_ns : int;
      (* booked to the failure domain: wasted work of crashed batches
         plus the detect/teardown/relaunch/recover path *)
  attribution_residue_ns : int;
      (* booked - attributed - unattributed - failover: 0 *)
  (* failure-domain outcomes *)
  served : int;
  shed : int;
  timed_out : int;
  failed : int;
  retries : int;  (* requeues scheduled after failed batches *)
  failovers : int;  (* enclaves lost, destroyed, and relaunched *)
  recovery_p99_ns : int;  (* p99 failover duration (0 when no failover) *)
  goodput_rps : float;  (* served / elapsed *)
  availability_ppm : int;  (* served per million admitted *)
  cross_refaults : int;
  interference_by_evictor : (int * int) list;
  p99_exemplar_rids : int list;
  (* virtual-time sampler *)
  sampler_samples : int;
  queue_depth_hwm : int;
  queue_depth_hwm_by_enclave : (int * int) list;
  epc_resident_by_enclave : (int * int) list;
  (* streaming SLO plane *)
  retained : bool;  (* requests_log populated? false under --stream *)
  t0_ns : int;  (* serving-phase start: window 0 opens here *)
  window_ns : int;  (* effective tumbling-window period *)
  series : Twine_obs.Timeseries.t;
  windows : Twine_obs.Timeseries.window list;  (* fleet track, ascending *)
  sketch : Twine_obs.Sketch.t;  (* merge of per-window fleet sketches *)
  sketch_p50_ns : int;
  sketch_p99_ns : int;
  slo : (Twine_obs.Slo.spec * Twine_obs.Slo.eval) option;
  (* query-stats registry: per-enclave and fleet-merged; populated on
     the shared serving path, so identical in retained and --stream *)
  sqlstats_by_enclave : (int * Sqlstat.t) list;  (* eid ascending *)
  sqlstats_fleet : Sqlstat.t;
  ledger : Twine_obs.Ledger.snapshot;
  machine : Machine.t;
}

(* Scheduler-side record of one admitted request, allocated once at
   admission and alive until it completes (any outcome). Worker queues,
   timer events and batches all hold it directly. *)
type inflight = {
  r : request;  (* the logged record, filled in as the request progresses *)
  req : Workload.req;
  slot : int;  (* home fleet slot: its queue on arrival and on every retry *)
  mutable deadline : Twine_sim.Eventq.id option;
  mutable state : [ `Queued | `Away | `Done ];
      (* [`Away]: dispatched in a batch or waiting out a retry backoff.
         A [`Done] entry left in a worker queue is the tombstone of a
         request that timed out while queued. *)
}

type worker = {
  rt : Twine.Runtime.t;
  db : Db.t;
  queue : inflight Queue.t;
  pager_work : int ref;
  mutable depth_hwm : int;
  mutable live : int;
      (* live queued requests (the queue may also hold tombstoned
         entries for requests that timed out while waiting) *)
  eid : int;
  sqlstats : Sqlstat.t;  (* per-enclave query-stats registry *)
}

let sql_of_req = function
  | Workload.Kv_get k -> Printf.sprintf "SELECT v FROM kv WHERE k = %d" k
  | Workload.Sql_point k -> Printf.sprintf "SELECT b, c FROM t WHERE a = %d" k
  | Workload.Sql_range (lo, span) ->
      Printf.sprintf "SELECT count(*), sum(b) FROM t WHERE a >= %d AND a < %d"
        lo (lo + span)

let value_bytes = function
  | Value.Null -> 4
  | Value.Int _ | Value.Real _ -> 8
  | Value.Text s | Value.Blob s -> String.length s

let response_bytes (r : Db.result) =
  List.fold_left
    (fun acc row -> List.fold_left (fun a v -> a + value_bytes v) acc row)
    0 r.Db.rows

(* Exact nearest-rank percentile over a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(Twine_obs.Sketch.rank n q - 1)

(* Request spans render on one Perfetto track per enclave. *)
let request_track eid = 100 + eid

(* [backing] is the slot's untrusted persistent store: it survives the
   enclave, so a replacement worker created with the same backing
   recovers the slot's durable database through the protected-file
   crash-recovery path (seal keys derive from the runtime measurement,
   not the enclave id, so the replacement unseals its predecessor's
   files). [sqlstats] lets a replacement continue its slot's registry. *)
let make_worker (cfg : config) machine ~backing ?sqlstats () =
  let config =
    {
      Twine.Runtime.default_config with
      Twine.Runtime.heap_bytes = 1024 * 1024;
      cache_nodes = 48;
    }
  in
  let rt = Twine.Runtime.create ~config ~backing machine in
  let e = Twine.Runtime.enclave rt in
  let vfs = Twine.Bench_db.pfs_svfs (Twine.Runtime.fs rt) in
  let hooks = Pager.default_hooks () in
  let pager_work = ref 0 in
  hooks.Pager.on_work <- (fun n -> pager_work := !pager_work + n);
  (* The page cache is enclave memory: every page buffer access is an
     EPC touch, so the fleet's aggregate hot set presses on the shared
     EPC — the contention this simulator exists to measure. *)
  let base = Enclave.reserve e (1 lsl 33) in
  hooks.Pager.on_access <-
    (fun page_no ->
      Enclave.touch e ~addr:(base + (page_no * Pager.page_size)) ~len:Pager.page_size);
  let db =
    Db.open_db ~vfs ~cache_pages:cfg.cache_pages ~hooks
      ~obs:machine.Machine.obs "serve.db"
  in
  { rt; db; queue = Queue.create (); pager_work; depth_hwm = 0; live = 0;
    eid = Enclave.id e;
    sqlstats = (match sqlstats with Some s -> s | None -> Sqlstat.create ()) }

let populate (cfg : config) w =
  ignore (Db.exec w.db "CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)");
  ignore (Db.exec w.db "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)");
  let payload j = Printf.sprintf "%0*d" cfg.payload_bytes j in
  let chunk = 64 in
  let buf = Buffer.create 8192 in
  let insert table render =
    let i = ref 0 in
    while !i < cfg.rows do
      let hi = min cfg.rows (!i + chunk) in
      Buffer.clear buf;
      Buffer.add_string buf "INSERT INTO ";
      Buffer.add_string buf table;
      Buffer.add_string buf " VALUES ";
      for j = !i to hi - 1 do
        if j > !i then Buffer.add_char buf ',';
        Buffer.add_string buf (render j)
      done;
      ignore (Db.exec w.db (Buffer.contents buf));
      i := hi
    done
  in
  ignore (Db.exec w.db "BEGIN");
  insert "kv" (fun j -> Printf.sprintf "(%d,'%s')" j (payload j));
  insert "t" (fun j -> Printf.sprintf "(%d,%d,'%s')" j (j * 7) (payload j));
  ignore (Db.exec w.db "COMMIT")

(* Components of a request's latency: queue wait vs the cycle slices.
   The fixed order is load-bearing — {!dominant} breaks ties toward the
   earlier entry, so blame verdicts are deterministic — and the same
   names key the per-window breakdown sums in the SLO plane. *)
let components r =
  let retry = min r.retry_wait_ns (queue_ns r) in
  [ ("queue", queue_ns r - retry);
    ("retry", retry);
    ("transition", r.breakdown.transition_ns);
    ("exec", r.breakdown.exec_ns);
    ("pager", r.breakdown.pager_ns);
    ("epc.fault", r.breakdown.epc_fault_ns);
    ("epc.evict", r.breakdown.epc_evict_ns);
    ("crypto", r.breakdown.crypto_ns);
    ("other", r.breakdown.other_ns) ]

let bump_assoc l key d =
  let rec go = function
    | [] -> [ (key, d) ]
    | (k, v) :: rest when k = key -> (k, v + d) :: rest
    | kv :: rest -> kv :: go rest
  in
  go l

let run ?(prepare = fun (_ : Machine.t) -> ()) (cfg : config) =
  if cfg.enclaves <= 0 then invalid_arg "Serve.run: enclaves <= 0";
  if cfg.batch <= 0 then invalid_arg "Serve.run: batch <= 0";
  let window_ns =
    match cfg.slo with
    | Some s -> s.Twine_obs.Slo.window_ns
    | None -> cfg.window_ns
  in
  if window_ns <= 0 then invalid_arg "Serve.run: window_ns <= 0";
  let retain = cfg.retain_requests in
  let machine = Machine.create ~epc_bytes:cfg.epc_bytes ~seed:cfg.seed () in
  Twine.Bench_db.set_wasm_factor cfg.wasm_factor;
  (* One persistent backing per fleet slot: the untrusted store outlives
     any enclave serving the slot, so failover can relaunch into the
     same durable state. *)
  let backings =
    Array.init cfg.enclaves (fun _ -> Twine_ipfs.Backing.memory ())
  in
  let workers =
    Array.init cfg.enclaves (fun i ->
        make_worker cfg machine ~backing:backings.(i) ())
  in
  Array.iter (populate cfg) workers;
  (* Arrivals are pulled lazily from the workload stream in both modes
     (the generator never touches the machine, so laziness cannot move
     the virtual timeline): retained and streaming runs schedule the
     exact same events and replay byte-identical books. *)
  let next_arrival = Workload.stream ~seed:cfg.seed (shape_of cfg) in
  (* Setup (launch, population) is not the measurement: restart the
     books so the serving phase audits clean on its own. The EPC keeps
     its resident set — workers start warm, as a real fleet would. *)
  let ledger = Machine.ledger machine in
  let obs = Machine.obs machine in
  Twine_obs.Ledger.reset ledger;
  Twine_obs.Obs.reset obs;
  let epc = machine.Machine.epc in
  let evict0 =
    Array.map (fun w -> Epc.evictions_of epc w.eid) workers
  in
  let n = cfg.requests in
  (* retained mode: every admitted request's record, newest first *)
  let admitted = ref [] in
  (* -- per-request ledger slicing: the tap routes every booking -- *)
  let cur : request option ref = ref None in
  let in_batch = ref false in
  let in_failover = ref false in
  let overhead : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let outside = ref 0 in
  let failover_ns = ref 0 in
  (* attributed time accumulates as it is credited (tap + overhead
     shares): the streaming mode has no request log to fold at the end,
     and the retained mode gets the identical number this way *)
  let attributed = ref 0 in
  Twine_obs.Ledger.set_tap ledger
    (Some
       (fun account ns ->
         match !cur with
         | Some r ->
             credit r.breakdown account ns;
             attributed := !attributed + ns
         | None ->
             if !in_failover then failover_ns := !failover_ns + ns
             else if !in_batch then
               Hashtbl.replace overhead account
                 (ns + Option.value ~default:0 (Hashtbl.find_opt overhead account))
             else outside := !outside + ns));
  (* -- cross-enclave eviction provenance lands on the live request -- *)
  let interference_acc = ref [] in
  Epc.set_refault_hook epc
    (Some
       (fun ~owner:_ ~evictor ->
         match !cur with
         | Some r ->
             r.interference <- bump_assoc r.interference evictor 1;
             interference_acc := bump_assoc !interference_acc evictor 1
         | None -> ()));
  prepare machine;
  let t0 = Machine.now_ns machine in
  (* Arm the chaos schedule only now: setup (launch, population) is not
     under test, and spec windows are relative to the serving phase. *)
  (match cfg.chaos with
  | Some spec -> Machine.arm_faults machine (Twine_sim.Chaos.to_plan ~t0 spec)
  | None -> ());
  (* workload times are relative to the start of serving: rebase onto
     the machine clock (setup already consumed virtual time). The stream
     is pulled lazily — [lookahead] holds the next not-yet-due arrival —
     so the run holds O(backlog) requests, admitted in rid order. *)
  let lookahead = ref (next_arrival ()) in
  let batches = ref 0 in
  let rr = ref 0 in
  (* [timers] carries client deadlines and retry requeues on the same
     virtual clock as arrivals *)
  let timers :
      [ `Deadline of inflight | `Requeue of inflight ] Twine_sim.Eventq.t =
    Twine_sim.Eventq.create ()
  in
  let jitter =
    Twine_crypto.Drbg.create ~personalization:"serve-backoff" ~seed:cfg.seed ()
  in
  let served_count = ref 0 in
  let shed_count = ref 0 in
  let timeout_count = ref 0 in
  let failed_count = ref 0 in
  let completed () = !served_count + !shed_count + !timeout_count + !failed_count in
  let retry_count = ref 0 in
  let failover_count = ref 0 in
  let recovery_durations = ref [] in
  (* -- streaming SLO plane: tumbling windows on the virtual clock.
     One fleet track plus one per enclave; gauges are probed as each
     window closes (fleet: EPC activity deltas + total backlog;
     enclave: own backlog + residency). Closed windows keep reduced
     rows only, so the series is O(windows) regardless of n. -- *)
  let fleet_track = "fleet" in
  let track_of_eid = Printf.sprintf "e%d" in
  let worker_of_track =
    let tbl = Hashtbl.create cfg.enclaves in
    Array.iter (fun w -> Hashtbl.replace tbl (track_of_eid w.eid) w) workers;
    tbl
  in
  let probe =
    let last = Hashtbl.create 8 in
    fun ~track ->
      if track = fleet_track then begin
        let delta key =
          let v = Twine_obs.Obs.value obs key in
          let prev = Option.value ~default:0 (Hashtbl.find_opt last key) in
          Hashtbl.replace last key v;
          v - prev
        in
        [ ("completed", completed ());
          ("epc.fault", delta "epc.fault");
          ("epc.evict", delta "epc.evict");
          ("epc.refault.cross", delta "epc.refault.cross");
          ("queue_depth", Array.fold_left (fun a w -> a + w.live) 0 workers) ]
      end
      else
        match Hashtbl.find_opt worker_of_track track with
        | Some w ->
            [ ("queue_depth", w.live);
              ("epc.resident", Epc.resident_of epc w.eid) ]
        | None -> []
  in
  let on_close ~track (w : Twine_obs.Timeseries.window) =
    (* Perfetto counter tracks, one per series track, emitted live as
       each window closes (no-op without an attached recorder) *)
    Twine_obs.Obs.emit_counter obs ~cat:"slo" ("slo." ^ track)
      [ ("requests", w.Twine_obs.Timeseries.w_count);
        ("p50_ns", w.w_p50_ns);
        ("p99_ns", w.w_p99_ns);
        ("overs", w.w_overs) ]
  in
  let series =
    Twine_obs.Timeseries.create
      ?threshold_ns:(Option.map (fun s -> s.Twine_obs.Slo.threshold_ns) cfg.slo)
      ~probe ~on_close ~t0 ~window_ns ()
  in
  let work_ns work =
    int_of_float
      (Float.round (float_of_int work *. ns_per_work *. cfg.wasm_factor))
  in
  let charge_ns account ns = Machine.charge machine ~account "serve.sql" ns in
  let tracer = Twine_obs.Obs.tracer obs in
  (* The one completion path: each admitted request completes exactly
     once, with any outcome — cancel its deadline, count it, emit it. *)
  let complete x outcome =
    let r = x.r in
    (match x.deadline with
    | Some id -> Twine_sim.Eventq.cancel timers id
    | None -> ());
    x.state <- `Done;
    r.outcome <- outcome;
    incr
      (match outcome with
      | Served -> served_count
      | Shed -> shed_count
      | Timed_out -> timeout_count
      | Failed -> failed_count);
    let event =
      if outcome = Served then "serve.req"
      else begin
        let e = "serve." ^ outcome_name outcome in
        Twine_obs.Obs.inc obs e;
        e
      end
    in
    Twine_obs.Obs.emit obs ~cat:"serve"
      ~args:[ ("rid", r.rid); ("enclave", r.enclave); ("lat_ns", latency_ns r) ]
      event
  in
  (* Completion without service: shed at admission, client deadline
     expiry, or retry-budget exhaustion. It books nothing: a crashed
     attempt's slices were already moved to the failover bucket. *)
  let fail_fast x outcome ~eid =
    let now = Machine.now_ns machine in
    x.r.enclave <- eid;
    x.r.start_ns <- now;
    x.r.finish_ns <- now;
    complete x outcome
  in
  let serve_one w e x =
    let r = x.r in
    r.enclave <- w.eid;
    r.start_ns <- Machine.now_ns machine;
    (match tracer with
    | Some tr ->
        Twine_obs.Trace.begin_span tr ~cat:"serve"
          ~args:[ ("tid", request_track w.eid); ("rid", r.rid) ]
          r.kind
    | None -> ());
    cur := Some r;
    let sql = sql_of_req x.req in
    Enclave.copy_in e ~label:"serve.req" (String.length sql);
    Db.reset_work w.db;
    let pr0, pw0, _ = Pager.stats (Db.pager w.db) in
    let res = Db.exec w.db sql in
    let pr1, pw1, _ = Pager.stats (Db.pager w.db) in
    let work = Db.work w.db in
    let exec_ns = work_ns work in
    (* Per-operator attribution: the statement's exec booking is sliced
       across its operator tree (plus profiling overhead) in proportion
       to self-work. Slices sum exactly to [exec_ns] and land on the
       same account, so the ledger books are byte-identical to the
       single charge they replace. *)
    let shares =
      List.concat_map
        (fun (p : Db.profile) ->
          List.map (fun (o : Db.opstat) -> (o.Db.os_name, o.Db.os_work)) p.Db.pr_ops
          @ [ ("overhead", p.Db.pr_overhead_work) ])
        (Db.profiles w.db)
    in
    (match shares with
    | [] -> charge_ns "serve.exec" exec_ns
    | _ ->
        let slices = Db.slice_ns ~total_ns:exec_ns (List.map snd shares) in
        List.iter2
          (fun (name, _) ns ->
            if ns > 0 then begin
              (match tracer with
              | Some tr ->
                  Twine_obs.Trace.begin_span tr ~cat:"sqldb"
                    ~args:[ ("tid", request_track w.eid); ("rid", r.rid) ]
                    ("sql." ^ name)
              | None -> ());
              charge_ns "serve.exec" ns;
              match tracer with
              | Some tr ->
                  Twine_obs.Trace.end_span tr ~cat:"sqldb"
                    ~args:[ ("tid", request_track w.eid) ]
                    ("sql." ^ name)
              | None -> ()
            end)
          shares slices);
    let pager_units = !(w.pager_work) in
    let pager_ns = work_ns pager_units in
    if pager_units > 0 then begin
      charge_ns "serve.pager" pager_ns;
      w.pager_work := 0
    end;
    Enclave.copy_out e ~label:"serve.resp" (response_bytes res);
    cur := None;
    r.finish_ns <- Machine.now_ns machine;
    r.interference <- List.sort compare r.interference;
    (match tracer with
    | Some tr ->
        Twine_obs.Trace.end_span tr ~cat:"serve"
          ~args:[ ("tid", request_track w.eid) ]
          r.kind
    | None -> ());
    (* Query-stats registry: recorded on the shared serving path, so
       retained and --stream runs accumulate identical registries. *)
    Sqlstat.record w.sqlstats ~label:r.kind
      ~fingerprint:(Sqlstat.fingerprint sql)
      ~rows:(List.length res.Db.rows) ~work ~reads:(pr1 - pr0)
      ~writes:(pw1 - pw0) ~exec_ns ~pager_ns ~latency_ns:(latency_ns r) ();
    complete x Served;
    r
  in
  let enqueue x =
    let w = workers.(x.slot) in
    Queue.add x w.queue;
    x.state <- `Queued;
    w.live <- w.live + 1;
    if w.live > w.depth_hwm then w.depth_hwm <- w.live
  in
  let admit (a : Workload.arrival) =
    let at = t0 + a.Workload.at in
    let w = workers.(a.Workload.enclave) in
    let r =
      {
        rid = a.Workload.rid;
        enclave = w.eid;
        kind = Workload.req_name a.Workload.req;
        arrival_ns = at;
        start_ns = at;
        finish_ns = at;
        outcome = Served;
        attempts = 0;
        retry_wait_ns = 0;
        breakdown = zero_breakdown ();
        interference = [];
      }
    in
    if retain then admitted := r :: !admitted;
    let x =
      { r; req = a.Workload.req; slot = a.Workload.enclave; deadline = None;
        state = `Away }
    in
    (* admission control: shed before spending anything on it *)
    if cfg.shed_depth > 0 && w.live >= cfg.shed_depth then
      fail_fast x Shed ~eid:w.eid
    else begin
      if cfg.deadline_ns > 0 then
        x.deadline <-
          Some
            (Twine_sim.Eventq.schedule timers ~at:(at + cfg.deadline_ns)
               (`Deadline x));
      enqueue x
    end
  in
  (* -- batch-failure handling: salvage, blame, requeue, relaunch -- *)
  let salvage_to_failover () =
    (* The partial slices of the request that was in flight when the
       fault hit, plus the batch's accumulated overhead, are wasted
       work: move them to the failover bucket so the conservation law
       stays exact and the failure domain owns its own cost. The
       attempt is void, so the request's next one starts clean. *)
    (match !cur with
    | Some r ->
        let t = breakdown_total r.breakdown in
        attributed := !attributed - t;
        failover_ns := !failover_ns + t;
        r.breakdown <- zero_breakdown ();
        r.interference <- [];
        cur := None
    | None -> ());
    let oh = Hashtbl.fold (fun _ ns acc -> acc + ns) overhead 0 in
    failover_ns := !failover_ns + oh;
    Hashtbl.reset overhead
  in
  (* requests of a failed batch that were not served before the fault
     retry after a backoff, or fail once their budget is spent *)
  let requeue_unfinished ~eid batch =
    List.iter
      (fun x ->
        let r = x.r in
        if x.state = `Done then ()
        else if r.attempts > cfg.retries then fail_fast x Failed ~eid
        else begin
          incr retry_count;
          Twine_obs.Obs.inc obs "serve.retry";
          let backoff =
            if cfg.backoff_ns <= 0 then 0
            else begin
              (* capped exponential with deterministic DRBG jitter
                 (up to +25%), identical across replays and modes *)
              let exp = min 20 (r.attempts - 1) in
              let b =
                min
                  (backoff_cap_factor * cfg.backoff_ns)
                  (cfg.backoff_ns * (1 lsl exp))
              in
              let j =
                if b >= 4 then Twine_crypto.Drbg.int_below jitter (b / 4) else 0
              in
              b + j
            end
          in
          r.retry_wait_ns <- r.retry_wait_ns + backoff;
          ignore
            (Twine_sim.Eventq.schedule timers
               ~at:(Machine.now_ns machine + backoff)
               (`Requeue x))
        end)
      batch
  in
  let handle_batch_failure slot w batch err =
    salvage_to_failover ();
    in_failover := true;
    (match err with
    | `Transient _ ->
        (* recoverable entry failure: the enclave is healthy, only the
           batch is lost — detect and requeue *)
        Machine.charge machine ~account:"serve.failover.detect"
          "serve.failover" failover_detect_ns
    | `Lost _ ->
        incr failover_count;
        Twine_obs.Obs.inc obs "serve.failover";
        let fo_start = Machine.now_ns machine in
        Machine.charge machine ~account:"serve.failover.detect"
          "serve.failover" failover_detect_ns;
        let resident = Epc.resident_of epc w.eid in
        Machine.charge machine ~account:"serve.failover.teardown"
          "serve.failover"
          (failover_teardown_base_ns + (resident * failover_teardown_page_ns));
        (* EREMOVE the poisoned enclave: releases its EPC pages and
           purges its eviction provenance. Its Db handle dies with it —
           the durable truth lives in the slot's backing. *)
        Twine.Runtime.destroy w.rt;
        Machine.charge machine ~account:"serve.failover.relaunch"
          "serve.failover" failover_relaunch_ns;
        let neww =
          make_worker cfg machine ~backing:backings.(slot)
            ~sqlstats:w.sqlstats ()
        in
        Machine.charge machine ~account:"serve.failover.recover"
          "serve.failover" failover_recover_ns;
        (* arrivals queued behind the crash migrate to the replacement;
           the depth high-water mark is a slot-level statistic *)
        Queue.transfer w.queue neww.queue;
        neww.live <- w.live;
        neww.depth_hwm <- w.depth_hwm;
        workers.(slot) <- neww;
        evict0.(slot) <- Epc.evictions_of epc neww.eid;
        Hashtbl.remove worker_of_track (track_of_eid w.eid);
        Hashtbl.replace worker_of_track (track_of_eid neww.eid) neww;
        let dur = Machine.now_ns machine - fo_start in
        recovery_durations := dur :: !recovery_durations;
        Twine_obs.Obs.observe obs "serve.failover_ns" dur);
    in_failover := false;
    requeue_unfinished ~eid:w.eid batch
  in
  let drain () =
    let now = Machine.now_ns machine in
    let rec arrivals () =
      match !lookahead with
      | Some a when t0 + a.Workload.at <= now ->
          lookahead := next_arrival ();
          admit a;
          arrivals ()
      | _ -> ()
    in
    arrivals ();
    Twine_sim.Eventq.drain_until timers ~now (fun ~at:_ -> function
      | `Deadline x ->
          (* the client gave up: while queued (the entry stays behind as
             a tombstone) or while waiting out a retry backoff *)
          let w = workers.(x.slot) in
          if x.state = `Queued then w.live <- w.live - 1;
          fail_fast x Timed_out ~eid:w.eid
      | `Requeue x -> if x.state <> `Done then enqueue x)
  in
  (* -- virtual-time metrics sampler: per-enclave counter time-series
     (sample-and-hold: one sample per crossed boundary batch) -- *)
  let samples = ref 0 in
  let next_sample = ref (t0 + sample_every_ns) in
  let maybe_sample () =
    let now = Machine.now_ns machine in
    if now >= !next_sample then begin
      incr samples;
      (match tracer with
      | Some _ ->
          let per f = Array.to_list (Array.map f workers) in
          Twine_obs.Obs.emit_counter obs ~cat:"serve" "serve.queue_depth"
            (per (fun w -> (Printf.sprintf "e%d" w.eid, w.live)));
          Twine_obs.Obs.emit_counter obs ~cat:"serve" "serve.epc_resident"
            (per (fun w ->
                 (Printf.sprintf "e%d" w.eid, Epc.resident_of epc w.eid)));
          Twine_obs.Obs.emit_counter obs ~cat:"serve" "serve.completed"
            [ ("requests", completed ()) ]
      | None -> ());
      next_sample := now - ((now - t0) mod sample_every_ns) + sample_every_ns
    end
  in
  (* fold completed requests into the windowed series only once their
     breakdowns are final (after any overhead shares landed) *)
  let fold_served served =
    List.iter
      (fun r ->
        let comps = components r in
        let lat = latency_ns r in
        Twine_obs.Timeseries.record series ~now:r.finish_ns ~track:fleet_track
          ~latency_ns:lat ~comps ();
        Twine_obs.Timeseries.record series ~now:r.finish_ns
          ~track:(track_of_eid r.enclave) ~latency_ns:lat ~comps ())
      served
  in
  (* pop up to [nleft] live entries, skipping tombstones; each one
     dispatched is an attempt *)
  let rec take_batch w nleft acc =
    if nleft = 0 || w.live = 0 then List.rev acc
    else
      let x = Queue.pop w.queue in
      if x.state = `Queued then begin
        x.state <- `Away;
        x.r.attempts <- x.r.attempts + 1;
        w.live <- w.live - 1;
        take_batch w (nleft - 1) (x :: acc)
      end
      else take_batch w nleft acc
  in
  (* round-robin: the first slot from [i] with a live queue *)
  let k = cfg.enclaves in
  let rec live_slot i tries =
    if tries = 0 then None
    else if workers.(i mod k).live > 0 then Some (i mod k)
    else live_slot (i + 1) (tries - 1)
  in
  while completed () < n do
    drain ();
    maybe_sample ();
    match live_slot !rr k with
    | None -> (
        (* nothing runnable: the simulated core sleeps until the next
           arrival or timer (a client deadline or a retry requeue) —
           booked, so the audit still balances to elapsed time. There
           is none only when the drain completed the last requests. *)
        match
          List.filter_map Fun.id
            [ Option.map (fun a -> t0 + a.Workload.at) !lookahead;
              Twine_sim.Eventq.peek_time timers ]
        with
        | [] -> assert (completed () = n)
        | ts ->
            Machine.charge machine ~account:"serve.idle" "serve.idle"
              (List.fold_left min max_int ts - Machine.now_ns machine))
    | Some i ->
        rr := (i + 1) mod k;
        let w = workers.(i) in
        let batch = take_batch w cfg.batch [] in
        let size = List.length batch in
        incr batches;
        Twine_obs.Obs.observe obs "serve.batch_fill" size;
        let batch_ctx =
          [ ("enclave", w.eid); ("size", size);
            ("rid_first", (List.hd batch).r.rid);
            ("rid_last", (List.nth batch (size - 1)).r.rid) ]
        in
        in_batch := true;
        let done_rev = ref [] in
        let result =
          Twine.Runtime.serve_safe w.rt ~batch:batch_ctx (fun e ->
              List.iter (fun x -> done_rev := serve_one w e x :: !done_rev) batch)
        in
        in_batch := false;
        let served = List.rev !done_rev in
        (match result with
        | Ok () ->
            (* The batch's entry/exit crossings (and any other booking
               not inside a single request) are shared overhead: split
               each account evenly over the batch, remainder to the
               first request, so the split is exact in integers. *)
            let k_served = List.length served in
            if k_served > 0 then
              Hashtbl.iter
                (fun account ns ->
                  let per = ns / k_served and rem = ns mod k_served in
                  List.iteri
                    (fun j r ->
                      let share = per + if j = 0 then rem else 0 in
                      credit r.breakdown account share;
                      attributed := !attributed + share)
                    served)
                overhead;
            Hashtbl.reset overhead
        | Error err ->
            (* requests that completed before the fault keep their
               slices (no overhead share: the batch overhead is
               failure-domain cost now); the rest retry or fail *)
            handle_batch_failure i w batch err);
        fold_served served
  done;
  Twine_obs.Ledger.set_tap ledger None;
  Epc.set_refault_hook epc None;
  Machine.disarm_faults ();
  let final_now = Machine.now_ns machine in
  let elapsed_ns = final_now - t0 in
  (* close the series through the window holding the last completion
     (now + 1 so a completion landing exactly on a boundary closes) *)
  Twine_obs.Timeseries.finish series ~now:(final_now + 1);
  let windows = Twine_obs.Timeseries.windows series ~track:fleet_track in
  let sketch =
    match Twine_obs.Timeseries.sketch series ~track:fleet_track with
    | Some s -> s
    | None -> Twine_obs.Sketch.create ()
  in
  let sq p = Option.value (Twine_obs.Sketch.quantile sketch p) ~default:0 in
  let sketch_p50_ns = sq 0.5 in
  let sketch_p99_ns = sq 0.99 in
  let slo_eval =
    Option.map (fun spec -> (spec, Twine_obs.Slo.evaluate spec windows)) cfg.slo
  in
  let recovery_sorted =
    let a = Array.of_list !recovery_durations in
    Array.sort compare a;
    a
  in
  let ecalls = Twine_obs.Obs.value obs "sgx.ecall" in
  let ocalls = Twine_obs.Obs.value obs "sgx.ocall" in
  (* admission is in rid order, so the log is indexed by rid *)
  let requests_log = Array.of_list (List.rev !admitted) in
  let booked = (Twine_obs.Ledger.audit ledger).Twine_obs.Ledger.booked_ns in
  let interference_by_evictor = List.sort compare !interference_acc in
  (* retained mode: the served requests in (latency, rid) order give
     the exact percentiles, and the ones at and just below the p99 rank
     are its exemplars *)
  let served_sorted =
    Array.of_seq
      (Seq.filter (fun r -> r.outcome = Served) (Array.to_seq requests_log))
  in
  Array.sort
    (fun a b ->
      match compare (latency_ns a) (latency_ns b) with
      | 0 -> compare a.rid b.rid
      | c -> c)
    served_sorted;
  let sorted = Array.map latency_ns served_sorted in
  let p99_exemplar_rids =
    match Array.length served_sorted with
    | 0 -> []
    | k ->
        let r = Twine_obs.Sketch.rank k 0.99 in
        List.init (min 8 r) (fun j -> served_sorted.(r - 1 - j).rid)
  in
  let stats =
    {
      requests = n;
      enclaves = cfg.enclaves;
      batch = cfg.batch;
      elapsed_ns;
      idle_ns = Twine_obs.Ledger.ns ledger "serve.idle";
      throughput_rps =
        (if elapsed_ns = 0 then 0.
         else float_of_int n /. (float_of_int elapsed_ns /. 1e9));
      mean_ns =
        (match Twine_obs.Sketch.count sketch with
        | 0 -> 0
        | c -> Twine_obs.Sketch.sum sketch / c);
      (* retained mode: exact nearest-rank percentiles; streaming mode:
         the sketch estimates (within Sketch.alpha), since no latency
         array exists to sort *)
      p50_ns = (if retain then percentile sorted 0.50 else sketch_p50_ns);
      p99_ns = (if retain then percentile sorted 0.99 else sketch_p99_ns);
      max_ns = Twine_obs.Sketch.vmax sketch;
      batches = !batches;
      ecalls;
      ocalls;
      transitions_per_request =
        (if n = 0 then 0. else float_of_int (2 * (ecalls + ocalls)) /. float_of_int n);
      ecall_ns = Twine_obs.Ledger.ns ledger "sgx.transition.ecall";
      epc_faults = Twine_obs.Obs.value obs "epc.fault";
      epc_evictions = Twine_obs.Obs.value obs "epc.evict";
      epc_limit_pages = Epc.limit_pages epc;
      epc_resident_pages = Epc.resident_pages epc;
      evictions_by_enclave =
        Array.to_list
          (Array.mapi
             (fun i w -> (w.eid, Epc.evictions_of epc w.eid - evict0.(i)))
             workers);
      requests_log;
      attributed_ns = !attributed;
      unattributed_ns = !outside;
      failover_ns = !failover_ns;
      attribution_residue_ns = booked - !attributed - !outside - !failover_ns;
      served = !served_count;
      shed = !shed_count;
      timed_out = !timeout_count;
      failed = !failed_count;
      retries = !retry_count;
      failovers = !failover_count;
      recovery_p99_ns = percentile recovery_sorted 0.99;
      goodput_rps =
        (if elapsed_ns = 0 then 0.
         else float_of_int !served_count /. (float_of_int elapsed_ns /. 1e9));
      availability_ppm =
        (if n = 0 then 1_000_000 else !served_count * 1_000_000 / n);
      cross_refaults = Twine_obs.Obs.value obs "epc.refault.cross";
      interference_by_evictor;
      p99_exemplar_rids;
      sampler_samples = !samples;
      queue_depth_hwm =
        Array.fold_left (fun a w -> max a w.depth_hwm) 0 workers;
      queue_depth_hwm_by_enclave =
        Array.to_list (Array.map (fun w -> (w.eid, w.depth_hwm)) workers);
      epc_resident_by_enclave =
        Array.to_list (Array.map (fun w -> (w.eid, Epc.resident_of epc w.eid)) workers);
      retained = retain;
      t0_ns = t0;
      window_ns;
      series;
      windows;
      sketch;
      sketch_p50_ns;
      sketch_p99_ns;
      slo = slo_eval;
      sqlstats_by_enclave =
        List.sort
          (fun (a, _) (b, _) -> compare a b)
          (Array.to_list (Array.map (fun w -> (w.eid, w.sqlstats)) workers));
      sqlstats_fleet =
        Array.fold_left
          (fun acc w -> Sqlstat.merge acc w.sqlstats)
          (Sqlstat.create ()) workers;
      ledger = Twine_obs.Ledger.snapshot ledger;
      machine;
    }
  in
  Array.iter (fun w -> Db.close w.db) workers;
  stats

(* Thread-name metadata for {!Twine_obs.Trace_export}: one request
   track per enclave, in enclave-id order. *)
let threads (s : stats) =
  List.map
    (fun (eid, _) -> (request_track eid, Printf.sprintf "enclave %d requests" eid))
    s.evictions_by_enclave

(* --- tail-latency blame --- *)

let dominant r =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("queue", min_int) (components r)

type blame = { b_request : request; b_dominant : string; b_dominant_ns : int }

let by_latency_desc a b =
  match compare (latency_ns b) (latency_ns a) with
  | 0 -> compare a.rid b.rid
  | c -> c

(* Per-request views need the request log; a streaming run dropped it
   by design. Raise a clear error the CLI maps to exit 2. *)
let require_retained what (s : stats) =
  if not s.retained then
    invalid_arg
      (Printf.sprintf
         "Serve.%s: per-request retention is off (--stream); re-run without \
          --stream for per-request views"
         what)

let blame ?(top = 10) (s : stats) =
  require_retained "blame" s;
  let reqs = Array.copy s.requests_log in
  Array.sort by_latency_desc reqs;
  Array.to_list (Array.sub reqs 0 (min top (Array.length reqs)))
  |> List.map (fun r ->
         let d, v = dominant r in
         { b_request = r; b_dominant = d; b_dominant_ns = v })

(* Dominant-account census over the p99 tail (the slowest 1%, at least
   one request): the aggregate answer to "why is p99 what it is". *)
let blame_summary (s : stats) =
  require_retained "blame_summary" s;
  let n = Array.length s.requests_log in
  if n = 0 then []
  else begin
    let reqs = Array.copy s.requests_log in
    Array.sort by_latency_desc reqs;
    let k = max 1 (n / 100) in
    let counts = ref [] in
    for i = 0 to k - 1 do
      let d, _ = dominant reqs.(i) in
      counts := bump_assoc !counts d 1
    done;
    List.sort
      (fun (an, av) (bn, bv) ->
        match compare bv av with 0 -> compare an bn | c -> c)
      !counts
  end

let render_interference l =
  if l = [] then "-"
  else String.concat "," (List.map (fun (e, c) -> Printf.sprintf "e%d:%d" e c) l)

let render_blame ?(top = 10) (s : stats) =
  require_retained "render_blame" s;
  let b = Buffer.create 1024 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "-- serve blame: top %d of %d requests by latency --\n"
    (min top (Array.length s.requests_log))
    (Array.length s.requests_log);
  f "%5s %8s %4s %-9s %12s %12s %12s %-10s %s\n" "rank" "rid" "enc" "kind"
    "lat(ns)" "queue(ns)" "service(ns)" "dominant" "interference";
  List.iteri
    (fun i { b_request = r; b_dominant = d; b_dominant_ns = v } ->
      f "%5d %8d %4d %-9s %12d %12d %12d %-10s %s\n" (i + 1) r.rid r.enclave
        r.kind (latency_ns r) (queue_ns r) (service_ns r)
        (Printf.sprintf "%s:%d" d v)
        (render_interference r.interference))
    (blame ~top s);
  f "p99 tail dominants:";
  List.iter (fun (name, c) -> f " %s=%d" name c) (blame_summary s);
  f "\n";
  f "p99 exemplar rids:";
  List.iter (fun rid -> f " %d" rid) s.p99_exemplar_rids;
  f "\n";
  f
    "attribution: booked %d ns = requests %d ns + idle %d ns + failover %d ns \
     + residue %d ns%s\n"
    (s.attributed_ns + s.unattributed_ns + s.failover_ns
   + s.attribution_residue_ns)
    s.attributed_ns s.unattributed_ns s.failover_ns s.attribution_residue_ns
    (if s.attribution_residue_ns = 0 then " (slices conserve)"
     else " (UNATTRIBUTED TIME)");
  f "cross-enclave refaults: %d" s.cross_refaults;
  List.iter
    (fun (e, c) -> f " by-e%d=%d" e c)
    s.interference_by_evictor;
  f "\n";
  Buffer.contents b

(* --- canonical request-trace text (byte-identical across replays) --- *)

let request_trace_schema = "twine-request-trace/v2"

let render_requests (s : stats) =
  require_retained "render_requests" s;
  let b = Buffer.create 4096 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "# %s\n" request_trace_schema;
  f "# rid enclave kind outcome attempts arrival start finish queue retry \
     transition exec pager epc_fault epc_evict crypto other interference\n";
  Array.iter
    (fun r ->
      f "%d %d %s %s %d %d %d %d %d %d %d %d %d %d %d %d %d %s\n" r.rid
        r.enclave r.kind (outcome_name r.outcome) r.attempts r.arrival_ns
        r.start_ns r.finish_ns (queue_ns r) r.retry_wait_ns
        r.breakdown.transition_ns r.breakdown.exec_ns r.breakdown.pager_ns
        r.breakdown.epc_fault_ns r.breakdown.epc_evict_ns
        r.breakdown.crypto_ns r.breakdown.other_ns
        (render_interference r.interference))
    s.requests_log;
  Buffer.contents b

let render (s : stats) =
  let b = Buffer.create 512 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "serve: %d requests over %d enclaves (batch <= %d)\n" s.requests s.enclaves
    s.batch;
  f "  elapsed          %d ns (idle %d ns)\n" s.elapsed_ns s.idle_ns;
  f "  throughput       %.0f req/s\n" s.throughput_rps;
  f "  latency          p50 %d ns  p99 %d ns  mean %d ns  max %d ns\n" s.p50_ns
    s.p99_ns s.mean_ns s.max_ns;
  f "  batches          %d (%.2f req/batch)\n" s.batches
    (if s.batches = 0 then 0. else float_of_int s.requests /. float_of_int s.batches);
  f "  transitions      %d ecalls, %d ocalls (%.3f one-way/req)\n" s.ecalls
    s.ocalls s.transitions_per_request;
  f "  ecall cycles     %d ns booked to sgx.transition.ecall\n" s.ecall_ns;
  f "  epc              %d/%d pages resident, %d faults, %d evictions\n"
    s.epc_resident_pages s.epc_limit_pages s.epc_faults s.epc_evictions;
  f "  evictions by enclave:";
  List.iter (fun (id, v) -> f " e%d=%d" id v) s.evictions_by_enclave;
  f "\n";
  f
    "  attribution      %d requests: %d ns sliced + %d ns idle + %d ns \
     failover, residue %d ns\n"
    s.requests s.attributed_ns s.unattributed_ns s.failover_ns
    s.attribution_residue_ns;
  f "  outcomes         %d served, %d shed, %d timed out, %d failed\n" s.served
    s.shed s.timed_out s.failed;
  f "  resilience       %d retries, %d failovers (recovery p99 %d ns)\n"
    s.retries s.failovers s.recovery_p99_ns;
  f "  goodput          %.0f req/s (availability %d.%04d%%)\n" s.goodput_rps
    (s.availability_ppm / 10_000)
    (s.availability_ppm mod 10_000);
  f "  interference     %d cross-enclave refaults\n" s.cross_refaults;
  f "  sampler          %d samples, queue depth high-water %d\n"
    s.sampler_samples s.queue_depth_hwm;
  f "  windows          %d x %d ns, sketch p50 %d ns p99 %d ns%s\n"
    (List.length s.windows) s.window_ns s.sketch_p50_ns s.sketch_p99_ns
    (if s.retained then "" else " (streaming: no per-request log)");
  (match s.slo with
  | None -> ()
  | Some (spec, ev) ->
      f "  slo              %s: %s (burn %d.%03dx, %d/%d over, %d violating \
         windows, %d fast / %d slow alerts)\n"
        (Twine_obs.Slo.render spec)
        (if ev.Twine_obs.Slo.ev_violated then "VIOLATED" else "met")
        (ev.Twine_obs.Slo.ev_burn_x1000 / 1000)
        (ev.Twine_obs.Slo.ev_burn_x1000 mod 1000)
        ev.Twine_obs.Slo.ev_overs ev.Twine_obs.Slo.ev_total
        (List.length ev.Twine_obs.Slo.ev_violations)
        (List.length
           (List.filter
              (fun a -> a.Twine_obs.Slo.al_kind = `Fast)
              ev.Twine_obs.Slo.ev_alerts))
        (List.length
           (List.filter
              (fun a -> a.Twine_obs.Slo.al_kind = `Slow)
              ev.Twine_obs.Slo.ev_alerts));
      match ev.Twine_obs.Slo.ev_first_slow_ns with
      | Some t -> f "  slow-burn onset  %d ns into the run\n" (t - s.t0_ns)
      | None -> ());
  Buffer.contents b

(* --- canonical windowed-series artifact (byte-identical across modes) --- *)

let slo_schema = "twine-slo/v1"

(* Everything in the artifact is mode-independent — windows, sketch,
   spec and verdict are identical whether the run retained its request
   log or streamed — so retained-vs-stream byte equality is a CI-
   checkable invariant, and same (seed, config) replays are too. *)
let render_slo (s : stats) =
  let num i = Twine_obs.Json.Num (float_of_int i) in
  let assoc kvs = Twine_obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let window (w : Twine_obs.Timeseries.window) =
    Twine_obs.Json.Obj
      [
        ("index", num w.Twine_obs.Timeseries.w_index);
        ("start_ns", num w.w_start_ns);
        ("end_ns", num w.w_end_ns);
        ("count", num w.w_count);
        ("sum_ns", num w.w_sum_ns);
        ("max_ns", num w.w_max_ns);
        ("p50_ns", num w.w_p50_ns);
        ("p99_ns", num w.w_p99_ns);
        ("overs", num w.w_overs);
        ("comps", assoc w.w_comps);
        ("gauges", assoc w.w_gauges);
      ]
  in
  (* fleet first, then the enclave tracks in enclave-id order *)
  let track_names =
    "fleet"
    :: List.map
         (fun (eid, _) -> Printf.sprintf "e%d" eid)
         s.epc_resident_by_enclave
  in
  let track name =
    Twine_obs.Json.Obj
      [
        ("track", Str name);
        ( "windows",
          Arr (List.map window (Twine_obs.Timeseries.windows s.series ~track:name))
        );
      ]
  in
  Twine_obs.Json.to_string
    (Twine_obs.Json.Obj
       [
         ("schema", Str slo_schema);
         ("t0_ns", num s.t0_ns);
         ("window_ns", num s.window_ns);
         ("requests", num s.requests);
         ( "spec",
           match s.slo with
           | Some (spec, _) -> Twine_obs.Slo.spec_to_json spec
           | None -> Null );
         ( "eval",
           match s.slo with
           | Some (_, ev) -> Twine_obs.Slo.eval_to_json ev
           | None -> Null );
         ("sketch", Twine_obs.Sketch.to_json s.sketch);
         ("tracks", Arr (List.map track track_names));
       ])

let sqlstats_schema = "twine-sqlstats/v1"

(* The query-stats artifact is accumulated on the shared serving path
   (both retained and --stream runs execute the same serve_one), so for
   a fixed (seed, config) the rendered JSON is byte-identical across
   modes — checked with [cmp] in CI. Fleet first, then per-enclave
   registries in enclave-id order. *)
let render_sqlstats (s : stats) =
  let num i = Twine_obs.Json.Num (float_of_int i) in
  Twine_obs.Json.to_string
    (Twine_obs.Json.Obj
       [
         ("schema", Str sqlstats_schema);
         ("requests", num s.requests);
         ("enclaves", num s.enclaves);
         ("fleet", Sqlstat.to_json s.sqlstats_fleet);
         ( "by_enclave",
           Arr
             (List.map
                (fun (eid, reg) ->
                  Twine_obs.Json.Obj
                    [ ("enclave", num eid); ("stats", Sqlstat.to_json reg) ])
                s.sqlstats_by_enclave) );
       ])
