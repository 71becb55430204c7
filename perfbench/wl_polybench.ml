(* Workload [polybench]: the paper's Fig 3 path. One op takes a kernel's
   encoded module through Binary.decode -> Validate.check_module ->
   Interp.instantiate -> the default tier's compile -> "kernel" invoked in
   one ECALL with the linear memory accounted on a 2 MiB EPC. The native
   run of the same kernel (Kernel_dsl.comp_native) is timed after each op,
   outside the op, as the denominator of wasm_native_x. *)

open Common
open Twine_sgx
module Kd = Twine_polybench.Kernel_dsl

let epc_bytes = 2 * 1024 * 1024

type kernel = {
  k : Kd.kernel;
  lay : Kd.layout;
  bin : string;  (* Binary.encode of the kernel module *)
  reference : (int * int64 array) list;
      (* output arrays of the native run, as IEEE bit patterns *)
  mutable fuel : int;  (* fuel of the first Wasm run; -1 before it *)
  exec : Samples.t;  (* in-enclave exec seconds, per op *)
  native : Samples.t;  (* native run seconds *)
}

let bits a = Array.map Int64.bits_of_float a

let native_outputs (k : Kd.kernel) =
  let run, arr = Kd.comp_native k in
  let t0 = now () in
  run ();
  let dt = now () -. t0 in
  (dt, List.map (fun id -> (id, bits (arr id))) k.Kd.out_arrays)

let setup () =
  List.map
    (fun k ->
      let m, lay = Kd.comp_wasm k in
      let _, reference = native_outputs k in
      { k; lay; bin = Twine_wasm.Binary.encode m; reference; fuel = -1;
        exec = Samples.create (); native = Samples.create () })
    (Twine_polybench.Kernels.all ())

(* The kernel order: passes over the whole suite, each pass a seeded
   permutation, so kernels repeat once per pass and a run that stops on
   a pass boundary ran every kernel equally often whatever the seed. *)
let pass_order rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let default_tier_is_aot =
  Twine.Runtime.default_config.Twine.Runtime.engine = Twine.Runtime.Aot

(* Per-op results the caller checks and accumulates. *)
type op = {
  inst : Twine_wasm.Instance.t;
  machine : Machine.t;
  exec_s : float;
  vns : int;  (* virtual ns booked from ECALL entry to exit *)
}

(* Wraps each layer call of an op: a span in the traced run, nothing
   otherwise. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

let run_op ?(tier_aot = default_tier_is_aot) sp kn =
  let m = sp.span "wasm.decode" (fun () -> Twine_wasm.Binary.decode kn.bin) in
  sp.span "wasm.validate" (fun () -> Twine_wasm.Validate.check_module m);
  let inst = sp.span "wasm.instantiate" (fun () -> Twine_wasm.Interp.instantiate m) in
  if tier_aot then
    sp.span "wasm.compile" (fun () -> ignore (Twine_wasm.Aot.compile_instance inst));
  let machine, enclave =
    sp.span "sgx.launch" (fun () ->
        let machine = Machine.create ~seed:"perfbench" ~epc_bytes () in
        let enclave =
          Enclave.create machine ~heap_bytes:0 ~code:Twine.Runtime.runtime_code ()
        in
        (match inst.Twine_wasm.Instance.memory with
        | Some mem ->
            let base = Enclave.reserve enclave (Twine_wasm.Memory.size_bytes mem) in
            Twine.Runtime.install_memory_hook enclave ~base mem
        | None -> ());
        (machine, enclave))
  in
  let v0 = Machine.now_ns machine in
  let t0 = now () in
  sp.span "wasm.exec" (fun () ->
      Enclave.ecall enclave (fun _ -> ignore (Twine_wasm.Interp.invoke inst "kernel" [])));
  let exec_s = now () -. t0 in
  { inst; machine; exec_s; vns = Machine.now_ns machine - v0 }

(* The oracle: every output array equal to the native run's bit for bit,
   and the same fuel as every earlier run of this kernel. [corrupt]
   flips one expected bit, to show a wrong reference is caught. *)
let check ~corrupt kn op =
  let fuel = Twine_wasm.Interp.fuel_used op.inst in
  let fuel_ok = kn.fuel < 0 || kn.fuel = fuel in
  if kn.fuel < 0 then kn.fuel <- fuel;
  fuel_ok
  && List.for_all
       (fun (id, expect) ->
         let got = bits (Kd.read_wasm_array op.inst kn.lay kn.k id) in
         let expect =
           if corrupt then (
             let e = Array.copy expect in
             e.(0) <- Int64.logxor e.(0) 1L;
             e)
           else expect
         in
         got = expect)
       kn.reference

let time_native kn =
  let dt, _ = native_outputs kn.k in
  Samples.push kn.native dt

type counts = {
  mutable ops : int;
  mutable failed : int;
  mutable fuel : int;
  mutable faults : int;
  mutable evictions : int;
  mutable vns : int;
  lat : Samples.t;  (* op seconds *)
  vlat : Samples.t;  (* op virtual ns *)
  alloc : Samples.t;  (* op words *)
  exec_alloc : Samples.t;  (* words allocated by the ECALL (traced run) *)
}

let counts () =
  { ops = 0; failed = 0; fuel = 0; faults = 0; evictions = 0; vns = 0;
    lat = Samples.create (); vlat = Samples.create (); alloc = Samples.create ();
    exec_alloc = Samples.create () }

let per_op c x = if c.ops = 0 then 0. else x /. float_of_int c.ops

(* One pass over the suite in a seeded order; returns its raw op seconds
   and the host factor probed before it.
   With [spans], every op is a span whose children are its layer calls,
   and one interpreter run per kernel (outside the op spans) gives the
   tier gain. *)
let run_pass ?spans ?interp ~bias ~rng ~corrupt ks c =
  let f = sample_host () in
  let busy = ref 0. in
  let sp op =
    match spans with
    | None -> untraced
    | Some s ->
        { span =
            (fun name f ->
              if name = "wasm.exec" then begin
                let w0 = words () in
                let v = Spans.span s ~op name f in
                Samples.push c.exec_alloc (alloc_since w0 -. bias);
                v
              end
              else Spans.span s ~op name f) }
  in
  let whole op f =
    match spans with None -> f () | Some s -> Spans.span s ~op "polybench.op" f
  in
  Array.iter
    (fun i ->
      let kn = ks.(i) in
      let w0 = words () in
      let t0 = now () in
      let op = whole c.ops (fun () -> run_op (sp c.ops) kn) in
      let dt = now () -. t0 in
      let a = alloc_since w0 -. bias in
      busy := !busy +. dt;
      Samples.push c.lat (dt /. f);
      Samples.push c.alloc a;
      Samples.push kn.exec op.exec_s;
      Samples.push c.vlat (float_of_int op.vns);
      c.ops <- c.ops + 1;
      c.fuel <- c.fuel + Twine_wasm.Interp.fuel_used op.inst;
      c.faults <- c.faults + Epc.faults op.machine.Machine.epc;
      c.evictions <- c.evictions + Epc.evictions op.machine.Machine.epc;
      c.vns <- c.vns + op.vns;
      if not (check ~corrupt:(corrupt && c.ops = 1) kn op) then c.failed <- c.failed + 1;
      (match interp with
      | Some tbl when not (Hashtbl.mem tbl kn.k.Kd.name) ->
          let op = run_op ~tier_aot:false untraced kn in
          if not (check ~corrupt:false kn op) then c.failed <- c.failed + 1;
          Hashtbl.replace tbl kn.k.Kd.name op.exec_s
      | _ -> ());
      time_native kn)
    (pass_order rng (Array.length ks));
  (!busy, f)

let med_of s = median (Samples.to_array s)

let wasm_native_x kernels =
  geomean
    (List.filter_map
       (fun kn ->
         if Samples.length kn.exec = 0 || Samples.length kn.native = 0 then None
         else Some (med_of kn.exec /. Float.max 1e-9 (med_of kn.native)))
       kernels)

(* Throughput is the median over passes of kernels per pass-second, at
   nominal host speed. *)
let end_to_end ~setup_s ~passes kernels c =
  let lat = Array.map (fun s -> s *. 1e6) (Samples.to_array c.lat) in
  let p99, q, beyond = tail lat in
  let x = wasm_native_x kernels in
  ( [ m "setup_s" "s" (median setup_s);
      m "throughput_ops_s" "ops/s"
        (median (Array.map (fun (t, f) -> f *. float_of_int (List.length kernels) /. t) passes));
      m "latency_p50_us" "us" (median lat);
      m "latency_p99_us" "us" p99;
      m "alloc_words_per_op" "words"
        (per_op c (Array.fold_left ( +. ) 0. (Samples.to_array c.alloc)));
      m "peak_heap_mb" "MiB" (heap_mb ()) ],
    [ host_note ();
      Printf.sprintf "polybench: raw pass throughput %.2f ops/s"
        (median (Array.map (fun (t, _) -> float_of_int (List.length kernels) /. t) passes));
      Printf.sprintf "polybench: %d ops in %d passes; latency_p99_us is p%.0f, %d samples beyond it"
        c.ops (c.ops / List.length kernels) q beyond;
      Printf.sprintf
        "polybench: measured wasm_native_x %.2f (in-enclave exec / native); serve and sqlite-pfs charge the pinned factor %.1f"
        x Twine_serve.Serve.default_config.Twine_serve.Serve.wasm_factor;
      Printf.sprintf "polybench: error_rate %.4f" (per_op c (float_of_int c.failed)) ] )

let per_layer ~spans ~interp ~busy_u ~busy_t kernels cu ct =
  let med name = median (Spans.self_us spans name) in
  let exec_total = Spans.total_self_s spans "wasm.exec" in
  let tier_gain =
    geomean
      (List.filter_map
         (fun kn ->
           match Hashtbl.find_opt interp kn.k.Kd.name with
           | Some s when Samples.length kn.exec > 0 -> Some (s /. Float.max 1e-9 (med_of kn.exec))
           | _ -> None)
         kernels)
  in
  let mean_u = busy_u /. float_of_int (max 1 cu.ops) in
  let mean_t = busy_t /. float_of_int (max 1 ct.ops) in
  let vlat = Samples.to_array cu.vlat in
  let vp99, _, _ = tail vlat in
  [ m "wasm.decode_us" "us" (med "wasm.decode");
    m "wasm.validate_us" "us" (med "wasm.validate");
    m "wasm.instantiate_us" "us" (med "wasm.instantiate");
    m "wasm.compile_us" "us" (med "wasm.compile");
    m "wasm.exec_us" "us" (med "wasm.exec");
    m "wasm.exec_alloc_words" "words" (mean (Samples.to_array ct.exec_alloc));
    m "wasm.minstr_per_s" "Minstr/s"
      (if exec_total = 0. then 0. else float_of_int ct.fuel /. exec_total /. 1e6);
    m "wasm.fuel_per_op" "instr" (per_op cu (float_of_int cu.fuel));
    m "wasm.tier_gain_x" "x" tier_gain;
    m "wasm_native_x" "x" (wasm_native_x kernels);
    m "polybench.native_us" "us"
      (median (Array.of_list (List.map (fun kn -> med_of kn.native *. 1e6) kernels)));
    m "sgx.launch_us" "us" (med "sgx.launch");
    m "sgx.epc_faults_per_op" "count" (per_op cu (float_of_int cu.faults));
    m "sgx.epc_evictions_per_op" "count" (per_op cu (float_of_int cu.evictions));
    m "sgx.sim_overhead_us_per_op" "us" (per_op cu (float_of_int cu.vns) /. 1e3);
    m "sim_throughput_ops_s" "ops/s"
      (if cu.vns = 0 then 0. else float_of_int cu.ops /. (float_of_int cu.vns /. 1e9));
    m "sim_p50_us" "us" (median vlat /. 1e3);
    m "sim_p99_us" "us" (vp99 /. 1e3);
    m "bench.trace_overhead_pct" "%" ((mean_t /. mean_u -. 1.) *. 100.) ]

(* Set-up is a few tens of milliseconds: repeated for a steady median. *)
let setups = 5

let run ~seed ~seconds ~trace ~corrupt ~trace_file =
  let rng = Random.State.make [| seed |] in
  let setup_s =
    Array.init setups (fun _ ->
        let f = sample_host () in
        let t0 = now () in
        ignore (Sys.opaque_identity (setup ()));
        (now () -. t0) /. f)
  in
  let kernels = setup () in
  let ks = Array.of_list kernels in
  let bias = calibrate () in
  if not trace then begin
    let c = counts () in
    let passes = ref [] and busy = ref 0. in
    while !busy < seconds do
      let t, f = run_pass ~bias ~rng ~corrupt ks c in
      passes := (t, f) :: !passes;
      busy := !busy +. t
    done;
    let metrics, notes = end_to_end ~setup_s ~passes:(Array.of_list !passes) kernels c in
    { attempted = c.ops; failed = c.failed; metrics; notes }
  end
  else begin
    (* untraced and traced passes alternate, so both see the same
       host conditions and the difference is the tracing overhead *)
    let cu = counts () and ct = counts () in
    let spans = Spans.create () in
    let interp = Hashtbl.create 32 in
    let busy_u = ref 0. and busy_t = ref 0. in
    while !busy_u +. !busy_t < seconds do
      busy_u := !busy_u +. fst (run_pass ~bias ~rng ~corrupt ks cu);
      busy_t := !busy_t +. fst (run_pass ~spans ~interp ~bias ~rng ~corrupt:false ks ct)
    done;
    let busy_u = !busy_u and busy_t = !busy_t in
    Spans.write spans trace_file;
    { attempted = cu.ops + ct.ops; failed = cu.failed + ct.failed;
      metrics = per_layer ~spans ~interp ~busy_u ~busy_t kernels cu ct;
      notes =
        [ Printf.sprintf "polybench traced: %d untraced + %d traced ops; spans in %s"
            cu.ops ct.ops trace_file ] }
  end
