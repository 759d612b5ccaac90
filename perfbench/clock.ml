(* CLOCK_MONOTONIC in nanoseconds, without allocating. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
