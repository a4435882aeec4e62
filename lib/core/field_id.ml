(** Identifiers of abstract heap locations within an object: a named field
    of a class, or the paper's pseudo-field [f_elems] that collapses all
    elements of an object array (§2.4: "we treat an object array as an
    object with a single field f_elems"). *)

type t =
  | F of Jir.Types.class_name * Jir.Types.field_name
  | Elems

(* The order of [Stdlib.compare] — Elems before every named field, named
   fields by class then field name — without its polymorphic traversal. *)
let compare (a : t) (b : t) =
  match a, b with
  | Elems, Elems -> 0
  | Elems, F _ -> -1
  | F _, Elems -> 1
  | F (c1, f1), F (c2, f2) -> (
      match String.compare c1 c2 with 0 -> String.compare f1 f2 | c -> c)

let equal (a : t) (b : t) =
  match a, b with
  | Elems, Elems -> true
  | F (c1, f1), F (c2, f2) -> String.equal c1 c2 && String.equal f1 f2
  | (Elems | F _), _ -> false

let of_field_ref (fr : Jir.Types.field_ref) = F (fr.fclass, fr.fname)

let pp ppf = function
  | F (c, f) -> Fmt.pf ppf "%s.%s" c f
  | Elems -> Fmt.string ppf "elems"
