(** Identifiers of abstract heap locations within an object: a named
    field, or the pseudo-field [f_elems] collapsing all elements of an
    object array (paper §2.4). *)

type t =
  | F of Jir.Types.class_name * Jir.Types.field_name
  | Elems

val compare : t -> t -> int
(** The order of [Stdlib.compare]: [Elems] first, then named fields by
    class and field name. *)

val equal : t -> t -> bool
val of_field_ref : Jir.Types.field_ref -> t
val pp : t Fmt.t
