"""Each engine's one runtime path against trajectories recorded at 27e32d1.

``tests/data/engine_goldens.json`` holds one sha256 per case, recorded at
the commit before ISSUE 15 retired the legacy twins (the fluid
``fast_path``/``sparse_routing`` knobs, the DES ``pooling``/
``rto_coalesce``/``compact_fraction=None`` switches, campaign engine
``packet-oracle``). The pairwise property suites compare each engine with
a reference under ``tests/oracles``; this file is what notices the two
drifting *together*.

Digests are bit-level, so the fluid and batch ones also pin the numpy
build their arithmetic runs on (every engine draws from the stdlib
``repro.net.rand.Pcg64``): the file records the versions it was generated
with. To regenerate (only ever against a
checkout of the commit whose behaviour is being kept)::

    PYTHONPATH=<checkout>/src python tests/test_engine_goldens.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.obs as obs
from repro.campaign.spec import build_topology
from repro.fluidsim import FluidNetwork, FluidSimulation
from repro.net.batch import BatchEngine, ec2_scenario
from repro.net.network import Network
from repro.net.queues import DropTailQueue
from repro.units import mbps, ms
from repro.workloads.permutation import random_permutation_pairs

GOLDENS_PATH = Path(__file__).parent / "data" / "engine_goldens.json"

#: One cohort per algorithm family the step loop treats differently:
#: loss-driven coupled (lia, olia, balia), delay-driven rate adjustment
#: (wvegas), ECN-gated decrease (dctcp), the paper's DTS and its
#: energy-price extension, and uncoupled reno.
FLUID_ALGORITHMS = ("lia", "wvegas", "dts", "dctcp", "olia", "dts-ext",
                    "balia", "reno")


def _canonical(obj):
    """JSON-encodable form that keeps every bit: arrays as dtype, shape
    and hex bytes; floats as ``float.hex`` (nan-safe)."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return ["ndarray", arr.dtype.str, list(arr.shape), arr.tobytes().hex()]
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    body = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


# -------------------------------------------------------------------- cases

def fluid_case(topology: str, n_subflows: int, seed: int):
    """2 sim-s of a mixed-cohort permutation workload: every result
    array, the energies, the ``fluid.step`` instants, the final RNG."""
    topo = build_topology(topology)
    pairs = random_permutation_pairs(topo.hosts, np.random.default_rng(seed))
    net = FluidNetwork(topo, path_seed=seed)
    for i, (src, dst) in enumerate(pairs):
        net.add_connection(src, dst, FLUID_ALGORITHMS[i % len(FLUID_ALGORITHMS)],
                           n_subflows=n_subflows)
    net.finalize()
    tracer = obs.Tracer()
    sim = FluidSimulation(net, dt=0.004, seed=seed,
                          metrics=obs.MetricsRegistry(), tracer=tracer)
    res = sim.run(2.0)
    return {
        "duration": res.duration,
        "connection_goodput_bps": res.connection_goodput_bps,
        "connection_bits": res.connection_bits,
        "loss_events": res.loss_events,
        "mean_rtt": res.mean_rtt,
        "mean_utilization": res.mean_utilization,
        "host_energy_j": res.host_energy_j,
        "switch_energy_j": res.switch_energy_j,
        "sample_times": res.sample_times,
        "sample_goodput_bps": res.sample_goodput_bps,
        "sample_power_w": res.sample_power_w,
        "steps": [r["args"] for r in tracer.records
                  if r["name"] == "fluid.step"],
        "steps_taken": sim.steps_taken,
        "rng": rng_state(sim.rng),
    }


def rng_state(rng):
    """A generator's position in the form numpy's ``bit_generator.state``
    has, which these goldens were recorded in: ``Pcg64.state``'s own form,
    or, for a numpy ``Generator``, its bit generator's."""
    return getattr(rng, "bit_generator", rng).state


def des_rng_state(sim):
    """The DES generator's position (``des/clean`` never draws)."""
    return rng_state(sim.rand)


def des_case(seed: int, loss: float, queue: int, delayed_acks: bool,
             algorithm: str = "reno", n_routes: int = 1):
    """One finite transfer over ``n_routes`` two-hop paths; every
    behavioural observable of each subflow plus the clock."""
    net = Network(seed=seed)
    a, b = net.add_host("a"), net.add_host("b")
    routes = []
    for r in range(n_routes):
        s = net.add_switch(f"s{r}")
        net.link(a, s, rate_bps=mbps(50), delay=ms(2),
                 queue_factory=lambda: DropTailQueue(limit_packets=100))
        net.link(s, b, rate_bps=mbps(20), delay=ms(8 + 4 * r),
                 queue_factory=lambda: DropTailQueue(limit_packets=queue),
                 loss_rate=loss)
        routes.append(net.route([a, s, b]))
    conn = net.connection(routes, algorithm, total_bytes=2_000_000,
                          delayed_acks=delayed_acks)
    conn.start()
    net.run_until_complete([conn], timeout=600)
    return {
        "completed": conn.completed,
        "completion_time": conn.supply.completion_time,
        "final_now": net.sim.now,
        "events": net.sim.events_processed,
        "rng": des_rng_state(net.sim),
        "subflows": [
            {"acked": sf.acked, "packets_sent": sf.packets_sent,
             "retransmitted": sf.retransmitted,
             "fast_retransmits": sf.fast_retransmits,
             "timeouts": sf.timeouts, "loss_events": sf.loss_events,
             "acks": sf.receiver.acks_sent, "cwnd": sf.cwnd,
             "srtt": sf.srtt}
            for sf in conn.subflows
        ],
    }


def batch_case(algorithm: str):
    """One Fig. 10 EC2 point: the result payload and the final RNG."""
    scenario = ec2_scenario(n_hosts=20, n_subflows=4, algorithm=algorithm,
                            loss_rate=1e-3, duration=0.5, tick=2e-3, seed=1)
    engine = BatchEngine(scenario, metrics=obs.MetricsRegistry()).run()
    return {"result": engine.result(), "rng": engine.rng_state()}


CASES = {
    **{f"fluid/{topo}/s{nsub}/seed{seed}":
       (fluid_case, (topo, nsub, seed))
       for topo in ("bcube", "fattree", "vl2")
       for nsub in (1, 4)
       for seed in (1, 2)},
    "des/clean": (des_case, (1, 0.0, 60, False)),
    "des/lossy": (des_case, (2, 0.02, 12, False)),
    "des/delayed-ack": (des_case, (3, 0.005, 30, True)),
    "des/mptcp-lia-lossy": (des_case, (4, 0.01, 20, False, "lia", 2)),
    "batch/ec2/dts": (batch_case, ("dts",)),
    "batch/ec2/olia": (batch_case, ("olia",)),
}


def payload(key: str):
    fn, args = CASES[key]
    return fn(*args)


def compute(key: str) -> str:
    return digest(payload(key))


# -------------------------------------------------------------------- tests

def _goldens():
    return json.loads(GOLDENS_PATH.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_engine_matches_parent_golden(key):
    goldens = _goldens()
    assert compute(key) == goldens["digests"][key], (
        f"{key} drifted from the trajectory recorded with "
        f"{goldens['recorded_with']} (running numpy {np.__version__})")


def test_golden_file_covers_exactly_the_matrix():
    assert set(_goldens()["digests"]) == set(CASES)


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps({
        "recorded_with": {"numpy": np.__version__,
                          "python": sys.version.split()[0]},
        "digests": {key: compute(key) for key in sorted(CASES)},
    }, indent=1) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDENS_PATH}")
