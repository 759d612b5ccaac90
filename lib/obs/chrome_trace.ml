(* Chrome trace_event ("Trace Event Format") emission. Only the subset
   Perfetto / chrome://tracing actually require is produced: complete
   (ph "X"), flow (ph "s"/"t"/"f") and instant (ph "i") events with
   name/ts/pid/tid, plus process/thread name metadata (ph "M").
   Timestamps are microseconds. *)

let metadata ~pid ~tid ~name ~value =
  Json.Obj
    [ ("name", Json.String name);
      ("ph", Json.String "M");
      ("ts", Json.Float 0.0);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String value) ]) ]

let complete_event ~pid ~tid ~name ~ts_us ~dur_us ~args =
  Json.Obj
    [ ("name", Json.String name);
      ("ph", Json.String "X");
      ("ts", Json.Float ts_us);
      ("dur", Json.Float dur_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args) ]

(* Flow events bind arrows between slices: a start (ph "s") and a finish
   (ph "f") sharing an [id] draw one arrow from the slice enclosing the
   start's ts/pid/tid to the one enclosing the finish's. "bp":"e" on the
   finish makes the arrow land at the enclosing slice even when the ts
   falls mid-slice (the binding Perfetto expects for message arrival). *)
let flow_event ~pid ~tid ~name ~id ~ts_us phase =
  let ph, extra =
    match phase with
    | `Start -> ("s", [])
    | `Step -> ("t", [])
    | `Finish -> ("f", [ ("bp", Json.String "e") ])
  in
  Json.Obj
    ([ ("name", Json.String name);
       ("cat", Json.String "flow");
       ("ph", Json.String ph);
       ("id", Json.Int id);
       ("ts", Json.Float ts_us);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid) ]
    @ extra)

(* Thread-scoped instant event (ph "i"): a zero-duration marker. *)
let instant_event ~pid ~tid ~name ~ts_us ~args =
  Json.Obj
    [ ("name", Json.String name);
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float ts_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args) ]

let document events =
  Json.Obj
    [ ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms") ]
