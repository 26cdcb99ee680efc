"""Per-sequence specification of :func:`repro.transport.core.compute_pipe`:
the walk over the window its closed form must match exactly
(``test_compute_pipe_matches_reference`` in ``tests/test_fastpath.py``).
"""


def compute_pipe_reference(s) -> int:
    """RFC 6675 pipe for sender state ``s``, one sequence at a time."""
    pipe = 0
    sacked = s._sacked
    retx = s._retx_outstanding
    for seq in range(s.acked, s.high_water):
        if seq in sacked:
            continue
        if seq in retx:
            pipe += 1
        elif seq >= s.recover_point:
            pipe += 1  # sent after the episode began; presumed in flight
        elif not s._hole_is_lost(seq):
            pipe += 1
    return pipe
