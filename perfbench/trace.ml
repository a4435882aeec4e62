(** In-memory span recorder and host-GC pause accounting for the traced
    benchmark run.  Spans wrap the benchmark's calls into each layer's
    public entry points; nothing inside the program is instrumented. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** [-1] for a root span *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let job = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Telemetry.now_s () in
    let finish () =
      let stop = Telemetry.now_s () in
      spans := { id; name; job = !job; parent; start; stop } :: !spans;
      current := parent
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(** Total and self seconds per span name.  A span's self time is its
    duration minus the durations of its direct children. *)
let by_name () : (string, float * float) Hashtbl.t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    !spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let t, sf = Option.value ~default:(0., 0.) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (t +. dur, sf +. self))
    !spans;
  acc

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.job s.parent s.start s.stop)
    (List.rev !spans);
  close_out oc

(** Host (OCaml runtime) GC pause time, read from the runtime's own event
    ring.  Outermost runtime phases are summed, so nested phases count
    once.  The ring file goes to [OCAML_RUNTIME_EVENTS_DIR]. *)
module Host_gc = struct
  let pause_ns = ref 0L
  let depth = ref 0
  let began = ref 0L
  let lost = ref 0

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts _ ->
        if !depth = 0 then began := Runtime_events.Timestamp.to_int64 ts;
        incr depth)
      ~runtime_end:(fun _ ts _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            pause_ns :=
              Int64.add !pause_ns
                (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let start () = ignore (Lazy.force cursor)

  let poll () =
    if Lazy.is_val cursor then
      ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

  let pause_s () = Int64.to_float !pause_ns /. 1e9
end
