(** Telemetry registry: named event counters and the flight-recorder
    hook.

    One registry rides on each simulated machine; every layer (SGX
    transitions, EPC paging, protected-FS node cache, WASI dispatch, the
    database pager, the Wasm engine) counts events into it. Virtual time
    is not recorded here: every simulated nanosecond is booked once, in
    the machine's {!Ledger}. See {!Report} for rendering. *)

type t

val create : unit -> t

val reset : t -> unit
(** Clears the counters. The attached flight recorder (if any) is left
    alone. *)

(** {2 Flight recorder}

    A registry optionally carries a {!Trace} ring. When one is attached,
    the instrumented layers emit spans, instants and counters through
    it. With no recorder attached every emission is a single [match] —
    tracing costs nothing when off. *)

val set_tracer : t -> Trace.t option -> unit
val tracer : t -> Trace.t option

val emit : t -> cat:string -> ?args:(string * int) list -> string -> unit
(** Record an instant event in the attached recorder, if any. *)

val emit_counter : t -> cat:string -> string -> (string * int) list -> unit
(** Record a counter-track sample in the attached recorder, if any. *)

(** {2 Counters} *)

val inc : t -> string -> unit
val add : t -> string -> int -> unit
val value : t -> string -> int
(** 0 when the counter was never touched. *)

val counters : t -> (string * int) list
(** Every counter, sorted by name for stable reports. *)
