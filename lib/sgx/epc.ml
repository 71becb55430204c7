open Twine_sim

type page = int

(* --- enclave/page tag packing ---

   A global page identifier packs the owning enclave id above the page
   number. The encode/decode lives here, in one place, because the tag
   scheme is load-bearing at fleet scale: an enclave id spilling into the
   page bits would silently alias another enclave's pages (an EPC "hit"
   on memory the enclave never touched) and corrupt every per-enclave
   statistic derived from the tag. [page_of] is the only encoder and it
   bounds-checks both halves. *)

let page_no_bits = 40
let max_page_no = (1 lsl page_no_bits) - 1
let max_enclave_id = max_int lsr page_no_bits

let page_of ~enclave_id ~page_no =
  if page_no < 0 || page_no > max_page_no then
    invalid_arg "Epc.page_of: page_no out of range";
  if enclave_id < 0 || enclave_id > max_enclave_id then
    invalid_arg "Epc.page_of: enclave_id out of range";
  (enclave_id lsl page_no_bits) lor page_no

let enclave_of_page p = p lsr page_no_bits
let page_no_of_page p = p land max_page_no

module Obs = Twine_obs.Obs

type t = {
  resident : (page, unit) Lru.t;
  obs : Obs.t;
  victim_counts : (int, int) Hashtbl.t;
      (* enclave id -> times one of its pages was evicted *)
  resident_counts : (int, int) Hashtbl.t;
      (* enclave id -> pages currently resident (sums to Lru.length) *)
  evicted_by : (page, int) Hashtbl.t;
      (* victim page -> enclave whose fault evicted it, kept only for
         cross-enclave evictions until the owner faults it back in *)
  mutable on_cross_refault : (owner:int -> evictor:int -> unit) option;
}

let create ?(obs = Obs.create ()) ~limit_bytes () =
  let pages = limit_bytes / Costs.page_size in
  if pages < 1 then invalid_arg "Epc.create: limit below one page";
  {
    resident = Lru.create ~capacity:pages ();
    obs;
    victim_counts = Hashtbl.create 16;
    resident_counts = Hashtbl.create 16;
    evicted_by = Hashtbl.create 64;
    on_cross_refault = None;
  }

let limit_pages t = Lru.capacity t.resident
let resident_pages t = Lru.length t.resident

(* Timeline events for the paging that the counters summarise: each
   fault/eviction lands as an instant tagged with the enclave and page
   number. Hits stay off the timeline — they dominate event volume and
   carry no cliff signal. An eviction is tagged with the *victim* page
   (the one encrypted out), plus the enclave whose fault forced it, so
   cross-enclave interference is visible per event. *)
let page_args page =
  [ ("enclave", enclave_of_page page); ("page", page_no_of_page page) ]

let bump tbl key d =
  let n = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (n + d)

let note_victim t victim = bump t.victim_counts (enclave_of_page victim) 1

(* A refault of a page that a *different* enclave's fault pushed out is
   the per-request face of EPC interference: the victim enclave pays the
   re-encryption cost, the evictor caused it. The provenance entry lives
   from the eviction until the owner faults the page back in, so each
   cross-eviction is blamed at most once. *)
let note_refault t page =
  match Hashtbl.find_opt t.evicted_by page with
  | None -> ()
  | Some evictor ->
      Hashtbl.remove t.evicted_by page;
      Obs.inc t.obs "epc.refault.cross";
      (match t.on_cross_refault with
      | Some f -> f ~owner:(enclave_of_page page) ~evictor
      | None -> ())

let set_refault_hook t f = t.on_cross_refault <- f

let touch t page =
  match Lru.find t.resident page with
  | Some () ->
      Obs.inc t.obs "epc.hit";
      `Hit
  | None ->
      Obs.inc t.obs "epc.fault";
      note_refault t page;
      bump t.resident_counts (enclave_of_page page) 1;
      let tracer = Obs.tracer t.obs in
      let victim =
        match Lru.put t.resident page () with
        | Some (victim, ()) ->
            Obs.inc t.obs "epc.evict";
            note_victim t victim;
            bump t.resident_counts (enclave_of_page victim) (-1);
            let by = enclave_of_page page in
            if by <> enclave_of_page victim then
              Hashtbl.replace t.evicted_by victim by;
            (match tracer with
            | Some tr ->
                Twine_obs.Trace.instant tr ~cat:"epc"
                  ~args:(page_args victim @ [ ("by", by) ])
                  "epc.evict"
            | None -> ());
            Some victim
        | None -> None
      in
      (* one resident-pages sample per fault, after any eviction *)
      (match tracer with
      | Some tr ->
          Twine_obs.Trace.instant tr ~cat:"epc" ~args:(page_args page)
            "epc.fault";
          Twine_obs.Trace.counter tr ~cat:"epc" "epc.resident"
            [ ("pages", Lru.length t.resident) ]
      | None -> ());
      `Fault victim

let release_enclave t enclave_id =
  let belongs (page, ()) = enclave_of_page page = enclave_id in
  let doomed = List.filter belongs (Lru.to_list t.resident) in
  List.iter
    (fun (page, ()) ->
      (match Lru.remove t.resident page with
      | Some () -> bump t.resident_counts enclave_id (-1)
      | None -> ());
      Hashtbl.remove t.evicted_by page)
    doomed;
  Hashtbl.remove t.resident_counts enclave_id;
  (* Provenance hygiene for destroy-then-relaunch fleets: drop every
     eviction-provenance entry that names the dead enclave on EITHER
     side. Victim-side entries for its already-evicted (non-resident)
     pages would leak forever — the owner can never fault them back in.
     Evictor-side entries would blame a destroyed enclave (or, worse, a
     later enclave reusing the id) when the surviving owner refaults. *)
  let stale =
    Hashtbl.fold
      (fun page evictor acc ->
        if enclave_of_page page = enclave_id || evictor = enclave_id then
          page :: acc
        else acc)
      t.evicted_by []
  in
  List.iter (Hashtbl.remove t.evicted_by) stale

let faults t = Obs.value t.obs "epc.fault"
let evictions t = Obs.value t.obs "epc.evict"
let cross_refaults t = Obs.value t.obs "epc.refault.cross"

let evictions_of t enclave_id =
  try Hashtbl.find t.victim_counts enclave_id with Not_found -> 0

let resident_of t enclave_id =
  try Hashtbl.find t.resident_counts enclave_id with Not_found -> 0
