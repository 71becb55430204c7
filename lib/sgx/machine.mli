(** A simulated SGX-capable machine: virtual clock, cost model, EPC, the
    fused CPU secret from which sealing and attestation keys derive, a
    machine-wide telemetry registry, and the cycle ledger that books
    every simulated nanosecond for time-breakdown experiments. *)

type t = {
  clock : Twine_sim.Clock.t;
  obs : Twine_obs.Obs.t;
      (** telemetry registry (event counters, optional flight recorder);
          every layer of the stack counts into it *)
  ledger : Twine_obs.Ledger.t;
      (** cycle ledger on the same clock: every {!charge} books here, so
          [Ledger.audit] proves booked totals equal elapsed virtual time *)
  mutable costs : Costs.t;
  mutable cycle_carry : float;
      (** sub-ns remainder carried between {!charge_cycles} calls *)
  epc : Epc.t;
  cpu_key : string;  (** 32-byte fused secret (never leaves the package) *)
  mutable next_enclave_id : int;
}

val create : ?costs:Costs.t -> ?epc_bytes:int -> ?seed:string -> unit -> t
(** Default EPC is the paper's usable 93 MiB. [seed] makes the fused key
    (and hence all derived randomness) deterministic. *)

val charge : t -> string -> int -> unit
(** [charge t account ns] advances the clock by [ns] and books it into
    the machine ledger under [account]. This is the only place virtual
    time advances, so the ledger's conservation audit holds by
    construction. When a tracer is attached, also emits a
    [ledger.<account>] counter track with the account's running total. *)

val charge_cycles : t -> string -> int -> unit
(** Like {!charge} but in CPU cycles, converting via
    {!Costs.cycles_ns_rem} with a per-machine carry so sub-ns remainders
    accumulate instead of being lost to rounding. *)

val now_ns : t -> int

val obs : t -> Twine_obs.Obs.t

val ledger : t -> Twine_obs.Ledger.t

val with_tracked : (unit -> 'a) -> 'a * t list
(** [with_tracked f] runs [f] with machine tracking enabled and returns
    its result together with exactly the machines created during the
    call, in creation order. The registry state is snapshotted and
    restored on exit (also on exceptions), so scopes compose: a bench
    section can never re-audit machines created by an earlier section,
    and a nested scope observes only its own machines. *)

val attach_tracer : ?capacity:int -> t -> Twine_obs.Trace.t
(** Create a flight recorder on the machine's virtual clock, attach it
    to the registry and return it; from here on every instrumented
    layer emits timeline events (export with {!Twine_obs.Trace_export}). *)

val set_software_mode : t -> unit
(** Switch the cost model to Fig 6's SGX software (simulation) mode. *)

val arm_faults : t -> Twine_sim.Fault.plan -> unit
(** Arm a fault plan with its injections booked on this machine: each
    injected fault lands in a [fault.<site>] ledger account (so the
    conservation audit still balances — [Delay] faults charge their
    virtual ns, all others book a zero-ns event), bumps the
    [fault.injected] counter and emits a trace instant when a flight
    recorder is attached. The machine's virtual clock is installed as
    the plan's time source, so rules with [from_ns]/[until_ns]
    activation windows gate on this machine's virtual time. Disarm with
    {!disarm_faults}. *)

val disarm_faults : unit -> unit
(** Disarm the global fault plan (idempotent). *)
