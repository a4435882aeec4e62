(** Synchronous reachability oracle.

    The simulator can stop the world for free, so we compute exact
    reachable sets to (a) capture the logical snapshot when SATB marking
    starts and (b) verify collector invariants at the end of each cycle.
    A production collector obviously has no such oracle — it exists purely
    to {e check} the algorithms. *)

module Iset = Set.Make (Int)

(** Objects reachable from the given root ids. *)
let reachable (heap : Heap.t) (roots : int list) : Iset.t =
  let rec go seen = function
    | [] -> seen
    | id :: todo ->
        if Iset.mem id seen then go seen todo
        else
          let o = Heap.get heap id in
          let seen = Iset.add id seen in
          go seen (List.rev_append (Heap.out_edges o) todo)
  in
  go Iset.empty roots

let unmarked (heap : Heap.t) (set : Iset.t) : int =
  Iset.fold
    (fun id n ->
      let o = Heap.get heap id in
      if o.Heap.dead || not o.Heap.marked then n + 1 else n)
    set 0

(** Snapshot-invariant check shared by the SATB-family collectors: members
    of the marking-start snapshot that ended the cycle dead or unmarked.
    Nonzero means a barrier (or a tracing-state check) that was actually
    needed had been removed. *)
let snapshot_violations (heap : Heap.t) (snapshot : Iset.t) : int =
  unmarked heap snapshot

(** End-of-cycle check of the collectors without a snapshot (incremental
    update, hybrid): objects reachable from [roots] now but unmarked. *)
let end_violations (heap : Heap.t) (roots : int list) : int =
  unmarked heap (reachable heap roots)
