(** Discrete-event queue on the virtual clock.

    A binary min-heap of [(time, payload)] events. Ties on time break by
    insertion order (a monotone sequence number), so a scheduler driven
    off this queue is deterministic: the same seed produces the same pop
    order, independent of heap-internal layout. The serving simulator
    ({!Twine_serve}) uses one for its deadline/retry timers, which need
    {!cancel}. *)

type 'a t

type id
(** Handle of a scheduled event, for {!cancel}. Never reused. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Live (scheduled, not yet popped, not cancelled) events. *)

val is_empty : 'a t -> bool

val add : 'a t -> at:int -> 'a -> unit
(** Schedule a payload at virtual time [at] (ns).
    @raise Invalid_argument on negative [at]. *)

val schedule : 'a t -> at:int -> 'a -> id
(** Like {!add} but returns a handle the caller can {!cancel} — the
    serving fleet revokes a request's deadline timer on completion.
    @raise Invalid_argument on negative [at]. *)

val cancel : 'a t -> id -> unit
(** Revoke a scheduled event: it will never be returned by
    {!peek}/{!pop}/{!drain_until}, and its payload is released at once.
    Tombstone-based — the dead heap entry (time and handle only) is
    discarded lazily on its way to the top, so a cancel costs one
    O(log n) heap pop, amortized. Idempotent: cancelling an event that
    already fired (or was already cancelled) is a no-op. Cancelling
    does not disturb FIFO ordering among surviving same-time events. *)

val peek : 'a t -> (int * 'a) option
(** Earliest event without removing it. *)

val peek_time : 'a t -> int option

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event. *)

val drain_until : 'a t -> now:int -> (at:int -> 'a -> unit) -> unit
(** Pop every event with [time <= now], earliest first, calling [f] on
    each. *)
