(* Characterization of the four collectors: prints, for each run, the
   collector summary, the flight recorder's Mark_start/Mark_end/Pause
   records and every gc.cycle.*, gc.restart and gc.degraded telemetry
   event (without its timestamp and sequence number).  The output is
   diffed against gc_golden.expected; the same runs on the threaded
   engine must print the same text.

   Long runs (the soft-limit ones cycle hundreds of times) print their
   first [shown] record lines in full and fold the rest into a count and
   an MD5 digest, so any change still shows while the file stays small. *)

let soft_48 = { Jrt.Pacer.default_config with soft_limit = Some 48 }

let collectors =
  [
    ("satb", fun pacing -> Jrt.Runner.make_satb ~pacing ());
    ("incr", fun pacing -> Jrt.Runner.make_incr ~pacing ());
    ("retrace", fun pacing -> Jrt.Runner.make_retrace ~pacing ());
    ("hybrid", fun pacing -> Jrt.Runner.make_hybrid ~pacing ());
  ]

type config = {
  label : string;
  workload : string;
  pacing : Jrt.Pacer.config;
  extended : bool;  (** --swap --move-down --null-or-same --summaries *)
  chaos : int option;
  retrace_budget : int option;
}

let plain label workload pacing =
  { label; workload; pacing; extended = false; chaos = None;
    retrace_budget = None }

let extended label pacing ?chaos ?retrace_budget () =
  { label; workload = "db"; pacing; extended = true; chaos; retrace_budget }

let configs =
  [
    plain "jess default" "jess" Jrt.Pacer.default_config;
    plain "db default" "db" Jrt.Pacer.default_config;
    plain "db soft-limit 48" "db" soft_48;
    extended "db extended chaos 42" Jrt.Pacer.default_config ~chaos:42 ();
    (* seed 1 revokes mid-mark: plain SATB restarts from a fresh snapshot *)
    extended "db extended chaos 1" Jrt.Pacer.default_config ~chaos:1 ();
    (* a zero retrace budget under pressure: forced re-scans and
       gc.degraded on every overflowing check *)
    extended "db extended soft-limit 48 retrace-budget 0" soft_48
      ~retrace_budget:0 ();
  ]

let shown = 60

let add_folded b lines =
  List.iteri (fun i l -> if i < shown then Buffer.add_string b l) lines;
  let rest = List.filteri (fun i _ -> i >= shown) lines in
  if rest <> [] then
    Printf.bprintf b "... %d more, md5 %s\n" (List.length rest)
      (Digest.to_hex (Digest.string (String.concat "" rest)))

let ints l = String.concat " " (List.map string_of_int l)

let run_config ~engine c =
  let w = Option.get (Workloads.Registry.find c.workload) in
  let cw =
    if c.extended then
      Harness.Exp.compile ~swap:true ~move_down:true ~null_or_same:true
        ~summaries:true w
    else Harness.Exp.compile w
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (cname, make) ->
      Telemetry.reset ();
      let chaos =
        Option.map (fun s -> Jrt.Chaos.create (Jrt.Chaos.of_seed s)) c.chaos
      in
      let r =
        Harness.Exp.run ~gc:(make c.pacing) ~guards:true ?chaos
          ?retrace_budget:c.retrace_budget ~fail_on_thread_error:false ~engine
          cw
      in
      Printf.bprintf b "== %s / %s\n" c.label cname;
      Printf.bprintf b "steps %d hard_stop %b\n" r.steps (r.hard_stop <> None);
      (match r.gc with
      | None -> Buffer.add_string b "no gc summary\n"
      | Some g ->
          Printf.bprintf b "cycles %d violations %d\n" g.cycles
            g.total_violations;
          Printf.bprintf b "final_pause_works %s\n" (ints g.final_pause_works);
          Printf.bprintf b "pause_steps %s\n" (ints g.pause_steps);
          Printf.bprintf b "mark_increments %s\n" (ints g.mark_increments);
          Printf.bprintf b "logged_or_dirtied %s\n" (ints g.logged_or_dirtied);
          Printf.bprintf b "retraced %s\n" (ints g.retraced));
      add_folded b
        (List.filter_map
           (fun (e : Flight.ev) ->
             match e.k with
             | Flight.Mark_start | Flight.Mark_end ->
                 Some
                   (Printf.sprintf "flight %s step=%d %s %d %d\n"
                      (Flight.kind_name e.k) e.step (Flight.str_of e.a) e.b
                      e.c)
             | Flight.Pause ->
                 Some
                   (Printf.sprintf "flight %s step=%d %d\n"
                      (Flight.kind_name e.k) e.step e.a)
             | _ -> None)
           (Flight.events ()));
      (* cycle events, then restart/degraded events, folded separately
         so the rarer kinds stay visible in long runs *)
      List.iter
        (fun keep ->
          add_folded b
            (List.filter_map
               (fun (e : Telemetry.event) ->
                 if keep e.ev_kind then
                   Some
                     (Printf.sprintf "event %s %s\n" e.ev_kind
                        (Telemetry.json_to_string (Telemetry.Obj e.ev_fields)))
                 else None)
               (Telemetry.events ())))
        [
          String.starts_with ~prefix:"gc.cycle.";
          (fun k -> k = "gc.restart" || k = "gc.degraded");
        ])
    collectors;
  Buffer.contents b

let () =
  (* a ring large enough that no run wraps it *)
  Flight.set_capacity (1 lsl 16);
  Telemetry.set_recording true;
  let out = List.map (run_config ~engine:`Interp) configs in
  let threaded = List.map (run_config ~engine:`Threaded) configs in
  List.iter print_string out;
  List.iter2
    (fun c (a, t) ->
      if a <> t then begin
        Printf.eprintf "gc_golden: %s differs between engines\n" c.label;
        exit 1
      end)
    configs (List.combine out threaded)
