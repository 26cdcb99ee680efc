"""``packet_des_figs``: the scalar packet DES on two figures.

Timed body: ``fig06_shared_bottleneck.run`` (clean shared bottleneck,
LIA/OLIA/Balia/ecMTCP) plus ``fig17_wireless.run`` (lossy heterogeneous
WiFi+4G, LIA/DTS/extended DTS).  It exercises ``net.events``,
``net.flow`` over ``transport.core``, ``net.mptcp``, the per-ACK
controllers and ``energy.accounting``, and bypasses ``net.batch``,
``fluidsim`` and ``campaign`` entirely.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path
from typing import Any, Dict

from common import Checks, Spans, finite, jain, per_unit

SIZES = {
    "smoke": {"user_counts": [2], "transfer_bytes": 200_000,
              "duration": 3.0, "n_seeds": 1},
    "bench": {"user_counts": [4], "transfer_bytes": 2_000_000,
              "duration": 15.0, "n_seeds": 2},
}
BOTTLENECK_BPS = 100e6
#: controllers whose isolated per-ACK cost is reported
ON_ACK_ALGORITHMS = ("dts", "lia", "olia", "balia", "dts-ext")

POOLS: Dict[str, Any] = {}


def inputs(seed: int, size: str) -> Dict[str, Any]:
    cfg = SIZES[size]
    return {"fig06": {"user_counts": cfg["user_counts"], "seed": seed,
                      "transfer_bytes": cfg["transfer_bytes"],
                      "bottleneck_bps": BOTTLENECK_BPS},
            "fig17": {"duration": cfg["duration"],
                      "seeds": [seed + i for i in range(cfg["n_seeds"])]}}


def setup(seed: int, size: str, scratch: Path) -> Dict[str, Any]:
    from repro.experiments import fig06_shared_bottleneck, fig17_wireless
    from repro.topology.wireless import build_wireless

    defaults = inspect.signature(build_wireless).parameters
    return {"inputs": inputs(seed, size), "fig06": fig06_shared_bottleneck,
            "fig17": fig17_wireless,
            "wireless_bps": (defaults["wifi_bps"].default
                             + defaults["cellular_bps"].default)}


def teardown(ctx: Dict[str, Any]) -> None:
    pass


def _figures(ctx: Dict[str, Any], spans: Spans):
    inp = ctx["inputs"]
    with spans.span("experiments.fig06"):
        r6 = ctx["fig06"].run(**inp["fig06"])
    with spans.span("experiments.fig17"):
        r17 = ctx["fig17"].run(**inp["fig17"])
    return r6, r17


def body(ctx: Dict[str, Any], checks: Checks) -> Dict[str, Any]:
    inp = ctx["inputs"]
    t0 = time.perf_counter()
    r6, r17 = _figures(ctx, Spans())
    wall = time.perf_counter() - t0

    joules = bits = 0.0
    scores = []
    capacity6 = 2 * inp["fig06"]["bottleneck_bps"]
    for cell in r6.cells:
        delivered = cell.n_users * cell.mean_goodput_bps
        checks.expect(
            len(cell.energies_j) == cell.n_users
            and finite(*cell.energies_j) and min(cell.energies_j) >= 0.0
            and 0.0 < delivered <= capacity6,
            f"invariant broken in fig06 {cell.algorithm} N={cell.n_users}")
        joules += sum(cell.energies_j)
        bits += cell.n_users * inp["fig06"]["transfer_bytes"] * 8
        # Every user moves the same bytes, so per-user joules are the
        # per-user outcome the public result carries.
        scores.append(jain(cell.energies_j) * delivered / capacity6)
    duration = inp["fig17"]["duration"]
    for row in r17.rows:
        checks.expect(
            finite(row.energy_j, row.goodput_bps) and row.energy_j >= 0.0
            and 0.0 < row.goodput_bps <= ctx["wireless_bps"],
            f"invariant broken in fig17 {row.algorithm}")
        joules += row.energy_j
        bits += row.goodput_bps * duration
    return {"values": {"wall_s": wall,
                       "energy_j_per_gbit": joules / (bits / 1e9),
                       "fairness_x_util": sum(scores) / len(scores)},
            "pools": {}}


def _on_ack_us(name: str, calls: int = 20_000) -> float:
    """Isolated per-ACK increase of one controller over two sans-IO
    subflows (short/long RTT), windows held in 1..64 segments."""
    from repro.algorithms import create_controller
    from repro.net.flow import SegmentSupply
    from repro.transport.core import PathProfile, SenderCore

    now = [0.0]
    controller = create_controller(name)
    cores = [SenderCore(SegmentSupply(None), clock=lambda: now[0],
                        controller=controller, subflow_index=i,
                        path=PathProfile(base_rtt=base, switch_hops=1))
             for i, base in enumerate((0.02, 0.05))]
    controller.attach(cores)
    for core, rtt in zip(cores, (0.025, 0.08)):
        core.srtt, core.cwnd = rtt, 20.0
        controller.on_rtt(core, rtt)
    t0 = time.perf_counter()
    for i in range(calls):
        core = cores[i & 1]
        controller.on_ack(core)
        if core.cwnd > 64.0:
            controller.on_loss(core)
        now[0] += 1e-4
    return (time.perf_counter() - t0) / calls * 1e6


class _IdleSubflow:
    mss, rtt, acked = 1460, 0.05, 0


class _IdleConnection:
    """The two attributes ``ConnectionEnergyMeter`` reads."""

    completed = False

    def __init__(self) -> None:
        self.subflows = [_IdleSubflow(), _IdleSubflow()]


def _meter_us_per_sample(samples: int = 5000) -> float:
    """An isolated meter ticking on an otherwise empty simulator."""
    import repro.obs as obs
    from repro.energy.accounting import ConnectionEnergyMeter
    from repro.experiments.fig17_wireless import wireless_host_model
    from repro.net.events import Simulator

    sim = Simulator()
    with obs.session() as session:
        ConnectionEnergyMeter(sim, _IdleConnection(), wireless_host_model(),
                              interval=1e-3, n_subflows=2)
        t0 = time.perf_counter()
        sim.run(until=samples * 1e-3)
        elapsed = time.perf_counter() - t0
    taken = session.registry.snapshot()["energy.samples"]
    return per_unit(elapsed, taken)


def traced(ctx: Dict[str, Any], checks: Checks,
           spans: Spans) -> Dict[str, float]:
    import repro.obs as obs

    with obs.session() as session:
        _, r17 = _figures(ctx, spans)
    snap = session.registry.snapshot()
    events = snap["engine.events_processed"]
    n_seeds = len(ctx["inputs"]["fig17"]["seeds"])
    out = {
        "traced_wall_s": (spans.total("experiments.fig06")
                          + spans.total("experiments.fig17")),
        "net.events.events": float(events),
        "net.events.us_per_event": per_unit(snap["engine.wall_time_s"], events),
        "net.events.heap_compactions": float(snap["engine.heap_compactions"]),
        # packets served from the free list per event processed
        "net.events.pool_reuse_ratio": snap["packet.pool_reuse"] / events,
        "net.mptcp.acks": float(snap["mptcp.acks"]),
        "net.mptcp.loss_events": float(snap["mptcp.loss_events"]),
        "net.flow.retransmissions":
            float(sum(row.retransmissions for row in r17.rows) * n_seeds),
    }
    with spans.span("algorithms.on_ack"):
        for name in ON_ACK_ALGORITHMS:
            out[f"algorithms.on_ack_us.{name}"] = _on_ack_us(name)
    with spans.span("energy.meter"):
        out["energy.meter_us_per_sample"] = _meter_us_per_sample()
    return out
