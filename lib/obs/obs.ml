(* Telemetry registry: named counters and the flight-recorder hook.

   One registry instance rides on each simulated machine; every layer of
   the stack (SGX transitions, EPC paging, protected-FS cache, WASI
   dispatch, the database pager, the Wasm engine) counts events into it
   and, when a flight recorder is attached, emits timeline events
   through it. Virtual time itself is recorded once, in the machine's
   cycle ledger. *)

type counter = { mutable c_value : int }

type t = {
  counters : (string, counter) Hashtbl.t;
  mutable tracer : Trace.t option;
}

let create () = { counters = Hashtbl.create 32; tracer = None }

let reset t = Hashtbl.reset t.counters

(* --- flight recorder attachment --- *)

let set_tracer t tr = t.tracer <- tr
let tracer t = t.tracer

let emit t ~cat ?args name =
  match t.tracer with Some tr -> Trace.instant tr ~cat ?args name | None -> ()

let emit_counter t ~cat name args =
  match t.tracer with Some tr -> Trace.counter tr ~cat name args | None -> ()

(* --- counters --- *)

let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add t.counters name c;
      c

let add t name n =
  let c = counter_cell t name in
  c.c_value <- c.c_value + n
let inc t name = add t name 1

let value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.c_value | None -> 0

(* sorted by name, for stable reports and tests *)
let counters t =
  Hashtbl.fold (fun k c acc -> (k, c.c_value) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
