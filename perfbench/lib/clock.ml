(* Nanosecond monotonic clock for request and span timing.
   [Unix.gettimeofday] steps by 1 µs, as coarse as the snapshot reads it
   would time; this clock reads CLOCK_MONOTONIC through an unboxed,
   allocation-free stub. *)

let now () = Int64.to_int (Monotonic_clock.now ())
