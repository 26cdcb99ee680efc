"""Consistency bench — packet controllers vs fluid adapters vs the model.

Ties the three layers of the reproduction together: for every decomposed
algorithm, the per-ACK increase computed by (a) the packet-level
controller, (b) the vectorized fluid adapter, and (c) the analytic
Section IV decomposition agree on random states; and the packet and fluid
engines land on comparable single-bottleneck equilibria.
"""

import numpy as np
from conftest import run_once

from tests.test_model import (CONSISTENT, consistency_state,
                              per_ack_increase_by_layer)


def max_relative_disagreement(seed=0, samples=200):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        for name in CONSISTENT:
            packet, fluid, model = per_ack_increase_by_layer(
                name, *consistency_state(name, rng))
            scale = max(abs(model), 1e-12)
            worst = max(worst, abs(fluid - model) / scale,
                        abs(packet - model) / scale)
    return worst


def test_three_layer_consistency(benchmark):
    worst = run_once(benchmark, max_relative_disagreement)
    print(f"\nModel consistency — worst relative disagreement across "
          f"{len(CONSISTENT)} algorithms x 200 random states: {worst:.2e}")
    assert worst < 1e-6
