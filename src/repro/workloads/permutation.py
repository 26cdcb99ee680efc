"""Datacenter permutation workload: each host sends to one random other.

This is the workload of the paper's htsim experiments (Figs. 12-16),
inherited from Raiciu et al. SIGCOMM'11: every host originates one
long-lived MPTCP flow to a distinct random destination.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


def random_permutation_pairs(hosts: Sequence[str], rng) -> List[Tuple[str, str]]:
    """A derangement-style pairing: each host sends to another host, no host
    sends to itself, every host receives exactly one flow.

    ``rng`` is a :class:`repro.net.rand.Pcg64` or a numpy ``Generator``;
    both shuffle a list with the same draws, so a seed pairs alike."""
    n = len(hosts)
    if n < 2:
        raise ConfigurationError("need at least two hosts for a permutation")
    perm = list(range(n))
    # Re-draw until it is a derangement (fast for n >= 2).
    while True:
        rng.shuffle(perm)
        if all(dst != src for src, dst in enumerate(perm)):
            break
    return [(hosts[i], hosts[perm[i]]) for i in range(n)]
