(** Chrome trace-event / Perfetto export of a {!Trace} ring.

    The output is the JSON Object Format ([{"traceEvents": [...]}])
    understood by [ui.perfetto.dev] and [chrome://tracing]: span
    begin/end pairs become nested slices, instants become markers,
    counter events become counter tracks. Timestamps are the
    simulator's virtual nanoseconds expressed in the format's
    microsecond unit.

    Events land on pid 1 / tid 1 unless they carry a reserved ["tid"]
    arg, which assigns the event to that track instead (and is stripped
    from the exported args) — the serving fleet puts each enclave's
    request spans on its own track this way. [threads] names those extra
    tracks via [thread_name] metadata. [otherData] carries the ring's
    health ([recorded]/[dropped]/[lost]/[high_water]/[capacity]) so a
    truncated timeline is detectable from the artifact alone. *)

val to_json : ?process_name:string -> ?threads:(int * string) list -> Trace.t -> Json.t
val to_string : ?process_name:string -> ?threads:(int * string) list -> Trace.t -> string

val folded : ?metric:[ `Fuel | `Cycles ] -> Profile.t -> string
(** Folded-stack (flamegraph) text of a guest profile: one
    ["outer;mid;leaf weight"] line per distinct call path, sorted,
    weighted by self instructions ([`Fuel], default) or self
    virtual-clock ns ([`Cycles]). Zero-weight paths are omitted; the
    result feeds flamegraph.pl, inferno or speedscope directly. *)

val folded_to_file : ?metric:[ `Fuel | `Cycles ] -> Profile.t -> string -> unit
