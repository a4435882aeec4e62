(** Synchronous reachability oracle.

    The simulator can stop the world for free, so we compute exact
    reachable sets to (a) capture the logical snapshot when SATB marking
    starts and (b) verify collector invariants at the end of each cycle.
    A production collector obviously has no such oracle — it exists purely
    to {e check} the algorithms.

    One traversal serves every use.  It is breadth first over a growable
    id buffer that is its own work queue, so when it ends the buffer
    holds exactly the reachable ids; an object counts as visited when its
    [stamp] equals the heap's [epoch], which each traversal bumps.  Once
    the buffers have grown to the largest reachable set, a traversal
    allocates nothing. *)

module Iset = Set.Make (Int)

(* a growable id buffer: the traversal's work queue and, when it ends,
   exactly the reachable ids *)
type snapshot = { mutable ids : int array; mutable len : int }

let snapshot () = { ids = Array.make 256 0; len = 0 }
let snapshot_size s = s.len

let push s id =
  if s.len = Array.length s.ids then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.ids 0 bigger 0 s.len;
    s.ids <- bigger
  end;
  s.ids.(s.len) <- id;
  s.len <- s.len + 1

let visit (heap : Heap.t) s id =
  let o = Heap.get heap id in
  if o.Heap.stamp <> heap.Heap.epoch then begin
    o.Heap.stamp <- heap.Heap.epoch;
    push s id
  end

let rec visit_roots heap s = function
  | [] -> ()
  | id :: rest ->
      visit heap s id;
      visit_roots heap s rest

(* Breadth first, scanning each object's slots in place.  Dead objects
   are traversed like live ones: a dead reachable object is exactly what
   the checks must count. *)
let capture s (heap : Heap.t) roots =
  heap.Heap.epoch <- heap.Heap.epoch + 1;
  s.len <- 0;
  visit_roots heap s roots;
  let i = ref 0 in
  while !i < s.len do
    (match (Heap.get heap s.ids.(!i)).Heap.payload with
    | Heap.Fields vs | Heap.Ref_array vs ->
        for k = 0 to Array.length vs - 1 do
          match vs.(k) with
          | Value.Ref id -> visit heap s id
          | Value.Null | Value.Int _ -> ()
        done
    | Heap.Int_array _ -> ());
    incr i
  done

(* the work queue of [iter_reachable]; a snapshot owns its own buffer, so
   traversals between a capture and its check leave the snapshot intact *)
let scratch = snapshot ()

let iter_reachable (heap : Heap.t) (roots : int list) (f : Heap.obj -> unit)
    : unit =
  capture scratch heap roots;
  for i = 0 to scratch.len - 1 do
    f (Heap.get heap scratch.ids.(i))
  done

let reached (heap : Heap.t) (o : Heap.obj) : bool =
  o.Heap.stamp = heap.Heap.epoch

(** Objects reachable from the given root ids. *)
let reachable (heap : Heap.t) (roots : int list) : Iset.t =
  let set = ref Iset.empty in
  iter_reachable heap roots (fun o -> set := Iset.add o.Heap.id !set);
  !set

let unmarked (o : Heap.obj) = o.Heap.dead || not o.Heap.marked

let snapshot_violations (heap : Heap.t) (s : snapshot) : int =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    if unmarked (Heap.get heap s.ids.(i)) then incr n
  done;
  !n

let end_violations (heap : Heap.t) (roots : int list) : int =
  capture scratch heap roots;
  snapshot_violations heap scratch
