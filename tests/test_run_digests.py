"""The one run path (ISSUE 16) against what every run computed at 9a4ad15.

``tests/data/run_digests.json`` holds one sha256 per case, recorded at the
commit before ``FluidNetwork.permutation`` and the shared metrics function
replaced the hand-written copies in the executor, the shard worker and the
Fig. 10 / Fig. 15 modules: each engine's ``execute_run(spec)["metrics"]``
and the row tuples of the two in-process figures must stay bit for bit.

To regenerate (only ever against a checkout of the commit whose behaviour
is being kept)::

    PYTHONPATH=<checkout>/src python tests/test_run_digests.py

These numbers are what the campaign cache replays, so a digest that moves
makes every cached result of the old behaviour stale: the file records the
``campaign.spec.SCHEMA_VERSION`` it was written under, the test below holds
the two equal, and regeneration refuses to write a *changed* digest under an
*unchanged* version.  ``tests/golden_moves.py`` prints what moved, by how much.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import SCHEMA_VERSION, RunSpec, execute_run
from repro.experiments import fig10_ec2, fig15_phi

DIGESTS_PATH = Path(__file__).parent / "data" / "run_digests.json"

FAST = dict(n_subflows=2, seed=1, duration=0.4, dt=0.01)


def _metrics(**spec_fields):
    return execute_run(RunSpec(**spec_fields))["metrics"]


def _rows(result):
    return [dataclasses.astuple(row) for row in result.rows]


CASES = {
    **{f"fluid/{topo}": (_metrics, dict(topology=topo, **FAST))
       for topo in ("bcube", "fattree", "vl2")},
    "fluid/sharded-float32": (_metrics, dict(
        topology="bcube", params={"shards": 2, "dtype": "float32"}, **FAST)),
    "fluid-equilibrium/lia-solved": (_metrics, dict(
        engine="fluid-equilibrium", topology="bcube", algorithm="lia",
        n_subflows=2, seed=1, duration=6.0, dt=0.01)),
    "fluid-equilibrium/wvegas-fallback": (_metrics, dict(
        engine="fluid-equilibrium", topology="bcube", algorithm="wvegas",
        **FAST)),
    "packet-batch/ec2": (_metrics, dict(
        engine="packet-batch", topology="ec2", algorithm="dts", n_subflows=4,
        seed=1, duration=0.3, dt=2e-3, params={"n_hosts": 8})),
    "fig10/rows": (lambda **kw: _rows(fig10_ec2.run(**kw)),
                   dict(n_hosts=12, duration=0.4, dt=0.004)),
    "fig15/rows": (lambda **kw: _rows(fig15_phi.run(**kw)),
                   dict(topologies=["fattree"], duration=0.4, dt=0.008,
                        seeds=[1, 2])),
}


def payload(key: str):
    fn, kwargs = CASES[key]
    return fn(**kwargs)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def compute(key: str) -> str:
    return digest(payload(key))


def _digests():
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("key", sorted(CASES))
def test_run_matches_parent_digest(key):
    recorded = _digests()
    assert set(recorded["digests"]) == set(CASES)
    assert compute(key) == recorded["digests"][key], (
        f"{key} drifted from the numbers recorded with "
        f"{recorded['recorded_with']} (running numpy {np.__version__})")


def test_digests_were_recorded_under_the_current_schema_version():
    """A moved digest and an invalid cache are one event (ROADMAP 5c)."""
    assert _digests()["schema_version"] == SCHEMA_VERSION


def test_solved_and_fallback_cases_take_the_branch_they_name():
    fn, kwargs = CASES["fluid-equilibrium/lia-solved"]
    assert fn(**kwargs)["solver"]["fallback"] is False
    fn, kwargs = CASES["fluid-equilibrium/wvegas-fallback"]
    assert fn(**kwargs)["solver"]["fallback"] is True


if __name__ == "__main__":
    recorded = _digests()
    digests = {key: compute(key) for key in sorted(CASES)}
    moved = sorted(key for key in digests
                   if recorded["digests"].get(key, digests[key]) != digests[key])
    if moved and recorded.get("schema_version") == SCHEMA_VERSION:
        sys.exit(f"{', '.join(moved)} moved but SCHEMA_VERSION is still "
                 f"{SCHEMA_VERSION}: cached results of the old behaviour would "
                 "replay as current; bump repro.campaign.spec.SCHEMA_VERSION")
    DIGESTS_PATH.write_text(json.dumps({
        "recorded_with": {"numpy": np.__version__,
                          "python": sys.version.split()[0]},
        "schema_version": SCHEMA_VERSION,
        "digests": digests,
    }, indent=1) + "\n")
    print(f"wrote {len(CASES)} digests ({len(moved)} moved) to {DIGESTS_PATH}")
