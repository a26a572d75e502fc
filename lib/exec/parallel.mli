(** The one deterministic data-parallel map over the {!Pool} domains.

    Results are written into their output slot by index, so the output
    ordering is that of the input regardless of which domain computed
    which chunk — for a pure function the result is bit-identical to
    the serial [Array.map] at every job count.  Inputs are split into
    contiguous chunks (about four per worker, via
    {!Numerics.Grid.chunks}) so uneven per-element costs still balance.

    Fan out only work whose elements cost a millisecond or more (a
    Monte-Carlo stream, a DTMC build, an O(n) closed-form point):
    below that, queueing and waking the workers costs more than the
    second domain saves. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] on the process-wide pool ({!Pool.get}, sized
    by {!Pool.set_jobs}); the plain serial map when the pool size is
    [1] or the input has fewer than two elements.  If [f] raises, the first
    exception observed is re-raised in the caller after the batch
    settles. *)
