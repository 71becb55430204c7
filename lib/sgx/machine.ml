open Twine_sim

type t = {
  clock : Clock.t;
  obs : Twine_obs.Obs.t;
  ledger : Twine_obs.Ledger.t;
  mutable costs : Costs.t;
  mutable cycle_carry : float;
  epc : Epc.t;
  cpu_key : string;
  mutable next_enclave_id : int;
}

let usable_epc_bytes = 93 * 1024 * 1024 (* paper §V-A: 128 MiB EPC, 93 usable *)

(* Opt-in registry so a bench driver can audit every machine a section
   created (conservation check) without threading them through every
   helper's return value. Off by default: unit tests create throwaway
   machines by the hundred.

   Tracking is *scoped*: [with_tracked] snapshots the registry state and
   restores it on the way out (exception-safe), so one section can never
   see — and re-audit — machines created by an earlier section, and
   nested scopes each observe exactly their own machines. *)
let tracking = ref false
let tracked : t list ref = ref []

let with_tracked f =
  let prev_tracking = !tracking and prev_tracked = !tracked in
  tracking := true;
  tracked := [];
  Fun.protect
    ~finally:(fun () ->
      tracking := prev_tracking;
      tracked := prev_tracked)
    (fun () ->
      let r = f () in
      (r, List.rev !tracked))

let create ?(costs = Costs.default) ?(epc_bytes = usable_epc_bytes)
    ?(seed = "twine-machine") () =
  let clock = Clock.create () in
  let now () = Clock.now_ns clock in
  let obs = Twine_obs.Obs.create () in
  let t =
    {
      clock;
      obs;
      ledger = Twine_obs.Ledger.create ~now ();
      costs;
      cycle_carry = 0.;
      epc = Epc.create ~obs ~limit_bytes:epc_bytes ();
      cpu_key = Twine_crypto.Sha256.digest ("cpu-fuse:" ^ seed);
      next_enclave_id = 1;
    }
  in
  if !tracking then tracked := t :: !tracked;
  t

(* The ONLY Clock.advance call site in the library: every nanosecond of
   virtual time passes through here, so booking each charge into the
   ledger makes the conservation audit (elapsed = booked) structural. *)
let charge t account ns =
  Clock.advance t.clock ns;
  Twine_obs.Ledger.book t.ledger account ns;
  match Twine_obs.Obs.tracer t.obs with
  | None -> ()
  | Some _ ->
      Twine_obs.Obs.emit_counter t.obs ~cat:"ledger" ("ledger." ^ account)
        [ ("ns", Twine_obs.Ledger.ns t.ledger account) ]

let charge_cycles t account cycles =
  let ns, carry =
    Costs.cycles_ns_rem t.costs ~carry:t.cycle_carry cycles
  in
  t.cycle_carry <- carry;
  charge t account ns

let now_ns t = Clock.now_ns t.clock

let obs t = t.obs

let ledger t = t.ledger

(* Create a flight recorder on the machine's virtual clock and hang it
   off the telemetry registry, so every instrumented layer starts
   emitting timeline events. *)
let attach_tracer ?capacity t =
  let tr = Twine_obs.Trace.create ?capacity ~now:(fun () -> Clock.now_ns t.clock) () in
  Twine_obs.Obs.set_tracer t.obs (Some tr);
  tr

let set_software_mode t = t.costs <- Costs.software_mode t.costs

(* Fault-plane wiring: every injection books into a [fault.<site>]
   ledger account on this machine (a [Delay] charges its virtual ns,
   everything else books a zero-ns event so the account still appears in
   reports) and lands in the trace ring, keeping the conservation audit
   balanced under injection. *)
let arm_faults t plan =
  Fault.arm plan
    ~now:(fun () -> Clock.now_ns t.clock)
    ~notify:(fun (inj : Fault.injection) ->
      let ns = match inj.Fault.action with Fault.Delay n -> n | _ -> 0 in
      charge t ("fault." ^ inj.Fault.site) ns;
      Twine_obs.Obs.emit t.obs ~cat:"fault"
        ~args:[ ("op", inj.Fault.op) ]
        ("fault." ^ inj.Fault.site))

let disarm_faults () = Fault.disarm ()
