(** Null ranges ("IntRanges", paper §3.2-3.3): the subrange of an object
    array's valid indices known to contain null.  [Empty] is the lattice
    top ("smaller ranges are larger in the lattice"). *)

type t =
  | Empty
  | Full of Intval.t * Intval.t  (** closed interval [lo..hi] *)
  | From of Intval.t  (** all valid indices ≥ lo *)
  | Up_to of Intval.t  (** all valid indices ≤ hi *)

val pp : t Fmt.t
val equal : t -> t -> bool

val of_new_array : Intval.t -> t
(** The whole index range of a just-allocated array of the given length. *)

(** In [contract], [mem] and [promote_like], a ⊤ index, bound or length
    is equal to nothing, not even to another ⊤: two unknown integers need
    not be the same integer. *)

val contract : t -> Intval.t -> t
(** The range after a store at the given index (paper §3.3): only stores
    at either end keep information — the conservatism behind the §3.6
    overflow argument. *)

val mem : t -> Intval.t -> len:Intval.t -> bool
(** Is a {e successful} (bounds-checked) store at the index provably
    inside the null range?  A [Full] range's bounds are implied by the
    bounds check when they equal [0] / [len-1]. *)

val promote_like : len:Intval.t -> t -> t -> t
(** Promote a [Full] range to the other operand's half-open shape when a
    bound provably coincides with the end of the array. *)

val merge : Intval.Ctx.ctx -> len1:Intval.t -> len2:Intval.t -> t -> t -> t
(** Control-flow-join merge; bounds are integer state components (§3.5)
    and go through the shared stride-discovery context. *)

val merge_flat : t -> t -> t
(** Equal-or-[Empty]. *)
