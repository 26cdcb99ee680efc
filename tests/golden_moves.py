"""What a golden move moved: every golden case, a parent checkout against this tree.

    python tests/golden_moves.py <parent-checkout> > docs/measurements/prNN_golden_moves.txt

Runs every case function of ``test_engine_goldens.py`` and
``test_run_digests.py`` twice, each time in a subprocess with this tree's
case definitions on the path — once over ``<parent-checkout>/src``, once
over this tree's ``src`` — and prints, for each key whose digest differs,
one row per payload field: the largest relative deviation of a float field
(``|a - b| / max(|a|, |b|)``, elementwise), ``equal`` / ``DIFFERENT`` for
an integer one (``loss_events``, ``steps_taken``, the final RNG state, ...).
List indices are folded (``steps[*].t`` is one row), so a 500-step
trajectory stays a table.  Exits 1 if any integer field differs.

A parent from before ISSUE 24 drew through a chunk-prefetching facade, and
its DES goldens hashed ``sim.rng`` wherever the live chunk's prefetch had
left it, up to 255 draws past what the run consumed.  For such a parent the
digest is still taken over that prefetched state (so a moved key is
reported), but the ``rng`` rows compare the state after ``sim.rand.sync()``
— the consumed position, which is what ``repro.net.rand.Pcg64`` reports.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("test_engine_goldens", "test_run_digests")


def _plain(obj):
    """JSON-encodable payload; Python's float repr round-trips every bit."""
    if hasattr(obj, "tolist"):  # ndarray or numpy scalar
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dump():
    """Every case of both suites over whatever ``repro`` is on the path."""
    import importlib

    from repro.net.events import Simulator

    consumed = []
    rand = Simulator(seed=0).rand
    goldens = importlib.import_module("tests.test_engine_goldens")
    if hasattr(rand, "sync"):  # a parent before ISSUE 24
        def prefetched_rng_state(sim):
            prefetched = sim.rng.bit_generator.state
            sim.rand.sync()
            consumed.append(sim.rng.bit_generator.state)
            return prefetched

        goldens.des_rng_state = prefetched_rng_state
    elif "bit_generator" not in rand.state:
        # A parent whose Pcg64.state was only {"state", "inc"}: its DES drew
        # no 32-bit halves, so numpy's whole form has none buffered.
        goldens.des_rng_state = lambda sim: {
            "bit_generator": "PCG64", "state": sim.rand.state,
            "has_uint32": 0, "uinteger": 0}

    out = {}
    for suite in SUITES:
        module = importlib.import_module(f"tests.{suite}")
        for key in sorted(module.CASES):
            payload = module.payload(key)
            entry = out[f"{suite}:{key}"] = {"digest": module.digest(payload)}
            if consumed:
                payload["rng"] = consumed.pop()
                entry["rng_after_sync"] = True
            entry["payload"] = _plain(payload)
    json.dump(out, sys.stdout)


def _run(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{ROOT}")
    done = subprocess.run([sys.executable, __file__, "--dump"], env=env,
                          cwd=ROOT, check=True, stdout=subprocess.PIPE)
    return json.loads(done.stdout)


def _fields(obj, path="", out=None):
    """``{path with list indices folded: [leaf values in order]}``; a list
    of rows folds the row index and keeps the column (``[*][3]``)."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key, value in obj.items():
            _fields(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list) and path.endswith("[*]"):
        for column, value in enumerate(obj):
            _fields(value, f"{path}[{column}]", out)
    elif isinstance(obj, list):
        folded = path if all(_is_leaf(v) for v in obj) else f"{path}[*]"
        for value in obj:
            _fields(value, folded, out)
    else:
        out.setdefault(path, []).append(obj)
    return out


def _is_leaf(value) -> bool:
    return not isinstance(value, (dict, list))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent, tree):
    """``[(field, kind, n, verdict)]`` and the worst float deviation."""
    rows, worst, integers_equal = [], 0.0, True
    before, after = _fields(parent), _fields(tree)
    for field in sorted(set(before) | set(after)):
        a, b = before.get(field, []), after.get(field, [])
        if len(a) != len(b):
            rows.append((field, "-", len(b), f"DIFFERENT length (parent {len(a)})"))
            integers_equal = False
        elif any(isinstance(v, float) for v in a + b) and all(map(_is_number, a + b)):
            dev = max(map(_deviation, a, b), default=0.0)
            worst = max(worst, dev)
            rows.append((field, "float", len(a), f"{dev:.2e}" if dev else "equal"))
        else:
            integers_equal &= a == b
            rows.append((field, type(b[0]).__name__ if b else "-", len(a),
                         "equal" if a == b else "DIFFERENT"))
    return rows, worst, integers_equal


def main(parent_checkout: str) -> int:
    parent = _run(Path(parent_checkout).resolve() / "src")
    tree = _run(ROOT / "src")
    moved = [key for key in tree if tree[key]["digest"] != parent[key]["digest"]]
    sha = subprocess.run(["git", "-C", parent_checkout, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    print(f"golden moves: {len(moved)} of {len(tree)} cases moved "
          f"(parent = {sha or parent_checkout})")
    worst_all, integers_all = 0.0, True
    for key in moved:
        rows, worst, integers_equal = compare(parent[key]["payload"],
                                              tree[key]["payload"])
        worst_all, integers_all = max(worst_all, worst), integers_all and integers_equal
        print(f"\n{key}")
        if parent[key].get("rng_after_sync"):
            print("  (parent digest: over the prefetched sim.rng; "
                  "rng rows: the parent after sim.rand.sync())")
        print(f"  {'field':<42} {'kind':<6} {'n':>6}  max rel dev")
        for field, kind, n, verdict in rows:
            print(f"  {field:<42} {kind:<6} {n:>6}  {verdict}")
    print("\nunmoved: " + ", ".join(key for key in tree if key not in moved))
    print(f"\nworst float deviation over all moved cases: {worst_all:.2e}")
    print("integer observables: "
          + ("all equal" if integers_all else "DIFFERENT somewhere"))
    return 0 if integers_all else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    elif len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    else:
        sys.exit(__doc__)
