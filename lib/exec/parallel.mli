(** The one deterministic data-parallel map.

    Each call spawns its helper domains and joins them before it
    returns or raises, so no domain outlives it.  Results are written
    into their output slot by index, so for a pure function the result
    is bit-identical to the serial [Array.map] at every job count.
    Helpers and caller take one index at a time from a shared counter,
    so uneven per-element costs still balance.

    Fan out only work whose elements cost a millisecond or more (a
    Monte-Carlo stream, a DTMC build, an O(n) closed-form point):
    below that, spawning and joining a domain costs more than the
    second domain saves. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] at {!Pool.jobs} domains: [min jobs n - 1]
    helpers spawned for this call, plus the caller.  The plain serial
    map when the job count is [1] or the input has fewer than two
    elements.  If [f] raises, no further element is started and the
    first exception observed is re-raised with its backtrace once every
    helper is joined; a failed [Domain.spawn] is re-raised the same
    way.  [f] must not itself call [map]. *)
