(* Discrete-event queue for the virtual clock: a binary min-heap of
   events keyed on (time, insertion sequence). The sequence number makes
   ties deterministic — two events scheduled for the same nanosecond pop
   in insertion order, so a simulation driven off this queue replays
   identically for a given seed regardless of heap-internal layout.

   Payloads live in the live set, keyed by sequence number; the heap
   holds only (time, seq). Cancellation is tombstone-based: [cancel]
   drops the event's entry (payload included) from the live set, and
   [peek]/[pop] discard dead heap entries lazily on their way to the
   top, so a cancelled event pins no payload while it waits there. Each cancelled entry is
   sifted out of the heap exactly once, so the amortized cost of a
   cancel is one O(log n) heap pop — cheap enough for one deadline
   timer per request in the serving fleet. *)

type id = int  (* the event's insertion sequence number *)

type 'a t = {
  mutable heap : (int * int) array;  (* (time, seq) *)
  mutable size : int;
  mutable next_seq : int;
  live : (int, 'a) Hashtbl.t;  (* payloads of seqs in the heap and not cancelled *)
}

let create () = { heap = [||]; size = 0; next_seq = 0; live = Hashtbl.create 16 }

let length t = Hashtbl.length t.live
let is_empty t = Hashtbl.length t.live = 0

let before (t1, s1) (t2, s2) = t1 < t2 || (t1 = t2 && s1 < s2)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let schedule t ~at payload =
  if at < 0 then invalid_arg "Eventq.add: negative time";
  if t.size = Array.length t.heap then begin
    let cap = max 16 (2 * Array.length t.heap) in
    let bigger = Array.make cap (0, 0) in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  let seq = t.next_seq in
  t.heap.(t.size) <- (at, seq);
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  Hashtbl.replace t.live seq payload;
  seq

let add t ~at payload = ignore (schedule t ~at payload)

(* Idempotent: a seq that already fired (or was already cancelled) is
   no longer in the live set, so cancelling it is a no-op. *)
let cancel t id = Hashtbl.remove t.live id

let heap_pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some top
  end

(* Discard cancelled entries off the top until a live one surfaces. *)
let rec settle t =
  if t.size = 0 then ()
  else
    let _, seq = t.heap.(0) in
    if Hashtbl.mem t.live seq then ()
    else begin
      ignore (heap_pop t);
      settle t
    end

let peek t =
  settle t;
  if t.size = 0 then None
  else
    let at, seq = t.heap.(0) in
    Some (at, Hashtbl.find t.live seq)

let peek_time t =
  settle t;
  if t.size = 0 then None else Some (fst t.heap.(0))

let pop t =
  settle t;
  match heap_pop t with
  | None -> None
  | Some (at, seq) ->
      let p = Hashtbl.find t.live seq in
      Hashtbl.remove t.live seq;
      Some (at, p)

(* Pop every event due at or before [now], in order. *)
let drain_until t ~now f =
  let rec go () =
    match peek_time t with
    | Some at when at <= now -> (
        match pop t with
        | Some (at, p) ->
            f ~at p;
            go ()
        | None -> ())
    | _ -> ()
  in
  go ()
