open Twine_crypto

type t = {
  machine : Machine.t;
  id : int;
  measurement : string;
  signer : string;
  mutable brk : int;  (* next free enclave address *)
  mutable committed : int;  (* committed bytes *)
  mutable depth : int;  (* ecall nesting depth *)
  mutable destroyed : bool;
  mutable poisoned : bool;
  drbg : Drbg.t;
}

exception Destroyed
exception Poisoned

let check t =
  if t.destroyed then raise Destroyed;
  if t.poisoned then raise Poisoned

(* Fault sites at the enclave boundary. [Fail] models a transient entry
   failure (out of TCS slots and friends) the caller may retry; [Crash]
   an asynchronous abort that loses the enclave — it stays poisoned, and
   every later entry raises [Poisoned] until the host tears it down. *)
let fault_gate t site =
  match Twine_sim.Fault.consult site with
  | None | Some (Twine_sim.Fault.Delay _) -> ()
  | Some Twine_sim.Fault.Fail -> raise (Twine_sim.Fault.Transient site)
  | Some
      ( Twine_sim.Fault.Crash | Twine_sim.Fault.Torn _ | Twine_sim.Fault.Corrupt
      | Twine_sim.Fault.Drop ) ->
      t.poisoned <- true;
      raise (Twine_sim.Fault.Crashed site)

let fault_pages (t : t) ~addr ~len =
  if len > 0 then begin
    let m = t.machine in
    let first = addr / Costs.page_size and last = (addr + len - 1) / Costs.page_size in
    for page_no = first to last do
      match Epc.touch m.epc (Epc.page_of ~enclave_id:t.id ~page_no) with
      | `Hit -> ()
      | `Fault victim ->
          (* same cost either way; the ledger splits plain page-ins from
             the capacity-pressure path that had to encrypt a page out *)
          let account =
            match victim with Some _ -> "epc.evict" | None -> "epc.fault"
          in
          Machine.charge_cycles m account m.costs.epc_fault_cycles
    done
  end

(* Enclave-heap counter track beside the EPC residency track: committed
   bytes only ever change here, so the timeline shows heap growth
   aligned with the paging events it causes. No-op without a tracer. *)
let note_heap t =
  Twine_obs.Obs.emit_counter t.machine.Machine.obs ~cat:"sgx" "enclave.heap"
    [ ("bytes", t.committed) ]

let create machine ?(signer = "twine-vendor") ?(heap_bytes = 16 * 1024 * 1024)
    ~code () =
  let id = machine.Machine.next_enclave_id in
  machine.next_enclave_id <- id + 1;
  let t =
    {
      machine;
      id;
      measurement = Sha256.digest ("mrenclave:" ^ code);
      signer = Sha256.digest ("mrsigner:" ^ signer);
      brk = Costs.page_size;  (* keep address 0 unused *)
      committed = 0;
      depth = 0;
      destroyed = false;
      poisoned = false;
      drbg =
        Drbg.create ~personalization:"sgx-rdrand"
          ~seed:(machine.cpu_key ^ Sha256.digest code ^ string_of_int id)
          ();
    }
  in
  (* ECREATE, then EADD+EEXTEND for every code and heap page. *)
  let pages = (String.length code + heap_bytes + Costs.page_size - 1) / Costs.page_size in
  Machine.charge machine "sgx.launch" machine.costs.launch_base_ns;
  Machine.charge_cycles machine "sgx.launch" (pages * machine.costs.page_add_cycles);
  t.committed <- String.length code + heap_bytes;
  t.brk <- t.brk + String.length code;
  note_heap t;
  t

let machine t = t.machine
let id t = t.id
let measurement t = t.measurement
let signer t = t.signer
let size_bytes t = t.committed

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Epc.release_enclave t.machine.epc t.id
  end

(* One enclave-boundary transition (half an ECALL/OCALL round trip),
   counted once: as a booked event of its ledger account. The flight
   recorder gets an instant per transition so the timeline shows each
   boundary crossing, not just the enclosing span. *)
let crossing t ~account name =
  (match Twine_obs.Obs.tracer t.machine.Machine.obs with
  | Some tr ->
      Twine_obs.Trace.instant tr ~cat:"sgx" ~args:[ ("enclave", t.id) ]
        (name ^ ".crossing")
  | None -> ());
  Machine.charge_cycles t.machine account t.machine.costs.transition_cycles

(* The body of a crossing as a [span] Begin/End pair on the flight
   recorder; End is emitted on unwind too, so the timeline stays
   balanced when the body raises. *)
let in_span t name f =
  let tracer () = Twine_obs.Obs.tracer t.machine.Machine.obs in
  Option.iter (fun tr -> Twine_obs.Trace.begin_span tr ~cat:"span" name) (tracer ());
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun tr -> Twine_obs.Trace.end_span tr ~cat:"span" name) (tracer ()))
    f

let ecall t ?(name = "sgx.ecall") f =
  check t;
  let account = "sgx.transition.ecall" in
  if t.depth = 0 then begin
    Twine_obs.Obs.inc t.machine.Machine.obs "sgx.ecall";
    crossing t ~account name
  end;
  t.depth <- t.depth + 1;
  Fun.protect
    ~finally:(fun () ->
      t.depth <- t.depth - 1;
      if t.depth = 0 && not t.destroyed then crossing t ~account name)
    (fun () ->
      fault_gate t "enclave.ecall";
      in_span t name (fun () -> f t))

let ocall t ?(name = "sgx.ocall") f =
  check t;
  if t.depth = 0 then invalid_arg "Enclave.ocall: not inside an ecall";
  let account = "sgx.transition.ocall" in
  Twine_obs.Obs.inc t.machine.Machine.obs "sgx.ocall";
  crossing t ~account name;
  Fun.protect
    ~finally:(fun () -> if not t.destroyed then crossing t ~account name)
    (fun () ->
      fault_gate t "enclave.ocall";
      in_span t name f)

let inside t = t.depth > 0
let poisoned t = t.poisoned

(* The in-enclave allocator is costlier than a host malloc and its cost
   grows with the committed size (§IV-C observed above-linear behaviour
   when enlarging buffers); we charge a base cost plus a per-committed-MiB
   surcharge, then fault the fresh pages in. *)
let alloc t n =
  check t;
  if n < 0 then invalid_arg "Enclave.alloc: negative size";
  let m = t.machine in
  let committed_mib = t.committed / (1024 * 1024) in
  Machine.charge m "sgx.alloc" (300 + (20 * committed_mib));
  let addr = t.brk in
  t.brk <- t.brk + n;
  t.committed <- t.committed + n;
  note_heap t;
  fault_pages t ~addr ~len:n;
  addr

(* Reserve address space without committing/faulting pages (used for
   large virtual regions whose pages fault in on first touch). *)
let reserve t n =
  check t;
  if n < 0 then invalid_arg "Enclave.reserve: negative size";
  let addr = t.brk in
  t.brk <- t.brk + n;
  addr

let touch t ~addr ~len =
  check t;
  fault_pages t ~addr ~len

(* EAUG-style commit of pages inside a previously reserved region: charge
   the page-add cost, grow the committed size and fault the pages in,
   without moving brk (the region's addresses are already reserved). *)
let commit t ~addr ~len =
  check t;
  if len < 0 then invalid_arg "Enclave.commit: negative size";
  if len > 0 then begin
    let m = t.machine in
    let pages =
      ((addr + len - 1) / Costs.page_size) - (addr / Costs.page_size) + 1
    in
    Machine.charge_cycles m "sgx.commit" (pages * m.costs.page_add_cycles);
    t.committed <- t.committed + len;
    note_heap t;
    fault_pages t ~addr ~len
  end

let memset t n =
  check t;
  Machine.charge t.machine "mee.memset"
    (Costs.bytes_ns t.machine.costs.memset_ns_per_byte n)

let copy t n =
  check t;
  Machine.charge t.machine "mee.copy"
    (Costs.bytes_ns t.machine.costs.copy_ns_per_byte n)

let copy_in = copy
let copy_out = copy

let load_reserved t code =
  check t;
  let n = String.length code in
  copy_in t n;
  (* mprotect-style page permission flips on the reserved region *)
  Machine.charge t.machine "sgx.reserved"
    (200 * ((n + Costs.page_size - 1) / Costs.page_size));
  let addr = t.brk in
  t.brk <- t.brk + n;
  t.committed <- t.committed + n;
  note_heap t;
  fault_pages t ~addr ~len:n;
  addr

let random t n =
  check t;
  Drbg.generate t.drbg n

let drbg t = t.drbg
