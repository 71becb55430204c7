(** pg_stat_statements-style query statistics registry.

    Entries are keyed by normalized query {!fingerprint}; each carries
    execution count, row/work totals, pager I/O, cycle totals and a
    mergeable latency sketch ({!Twine_obs.Sketch}). Registries merge
    into fleet views and export as canonical, sorted JSON — the
    [twine-sqlstats/v1] artifact is byte-identical for a fixed seed
    regardless of serve mode. *)

val fingerprint : string -> string
(** Normalize a statement: literals become ["?"], keywords uppercase,
    identifiers lowercase, single-space separated.
    @raise Token.Error on unlexable input. *)

type entry = {
  sq_fingerprint : string;
  sq_label : string;  (** first-seen label, e.g. the workload kind *)
  mutable sq_rows : int;
  mutable sq_work : int;
  mutable sq_reads : int;
  mutable sq_writes : int;
  mutable sq_exec_ns : int;
  mutable sq_pager_ns : int;
  mutable sq_latency : Twine_obs.Sketch.t;
}

type t

val create : unit -> t

val record :
  t -> ?label:string -> fingerprint:string -> rows:int -> work:int ->
  reads:int -> writes:int -> exec_ns:int -> pager_ns:int ->
  latency_ns:int -> unit -> unit

val entries : t -> entry list
(** Sorted by fingerprint. *)

val merge : t -> t -> t
(** Pure; sketches merge bit-identically, counters add. *)

val count : entry -> int
(** Executions recorded: the latency sketch's count. *)

val quantile_ns : entry -> float -> int
(** Latency quantile estimate from the sketch (0 when empty). *)

val to_json : t -> Twine_obs.Json.t
(** Canonical sorted array of entries. *)
