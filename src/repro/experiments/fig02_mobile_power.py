"""Fig. 2 — Nexus 5 power during data transfers: TCP/WiFi, TCP/LTE, MPTCP.

The paper installs the MPTCP kernel image on a Nexus 5 with WiFi and LTE
both enabled and shows that MPTCP "largely increases smart phone's power
consumption for data transfers" over single-radio TCP.

Reproduction: the heterogeneous wireless scenario (without cross traffic)
supplies realistic per-radio throughputs; the Nexus 5 device model (Huang
et al. radio constants) converts them to device power. MPTCP pays for both
radios at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.energy.mobile import MobileDeviceModel, nexus5
from repro.topology.wireless import build_wireless
from repro.units import mb, to_mbps


@dataclass
class MobileMeasurement:
    """One bar of Fig. 2."""

    label: str
    wifi_bps: float
    lte_bps: float
    device_power_w: float
    transfer_energy_j: float
    completion_time: Optional[float]


@dataclass
class Fig02Result:
    measurements: List[MobileMeasurement]

    def by_label(self) -> Dict[str, MobileMeasurement]:
        return {m.label: m for m in self.measurements}


def _measure(
    label: str,
    *,
    use_wifi: bool,
    use_lte: bool,
    transfer_bytes: int,
    device: MobileDeviceModel,
    seed: int,
) -> MobileMeasurement:
    scenario = build_wireless(
        algorithm="lia" if (use_wifi and use_lte) else "reno",
        transfer_bytes=transfer_bytes,
        cross_fraction=0.0,
        rcv_buffer_bytes=None,  # the phone negotiates window scaling
        seed=seed,
    )
    conn = scenario.connection
    if use_wifi and use_lte:
        pass  # both subflows already present
    elif use_wifi:
        conn.subflows = [conn.subflows[0]]
        conn.controller.attach(conn.subflows)
    else:
        conn.subflows = [conn.subflows[1]]
        conn.controller.attach(conn.subflows)
    conn.start()
    scenario.network.run_until_complete([conn], timeout=600)
    wifi_bps = conn.subflows[0].goodput_bps() if use_wifi else 0.0
    if use_wifi and use_lte:
        lte_bps = conn.subflows[1].goodput_bps()
    elif use_lte:
        lte_bps = conn.subflows[0].goodput_bps()
    else:
        lte_bps = 0.0
    rates = {"wifi": wifi_bps, "lte": lte_bps}
    power = device.transfer_power(rates)
    energy = device.transfer_energy(transfer_bytes, rates)
    return MobileMeasurement(
        label=label,
        wifi_bps=wifi_bps,
        lte_bps=lte_bps,
        device_power_w=power,
        transfer_energy_j=energy,
        completion_time=conn.completion_time,
    )


def run(
    *,
    transfer_bytes: int = mb(4),
    device: Optional[MobileDeviceModel] = None,
    seed: int = 1,
) -> Fig02Result:
    """Run the Fig. 2 comparison. Paper scale: hundreds of MB downloads."""
    dev = device if device is not None else nexus5()
    return Fig02Result(
        measurements=[
            _measure("tcp-wifi", use_wifi=True, use_lte=False,
                     transfer_bytes=transfer_bytes, device=dev, seed=seed),
            _measure("tcp-lte", use_wifi=False, use_lte=True,
                     transfer_bytes=transfer_bytes, device=dev, seed=seed + 1),
            _measure("mptcp", use_wifi=True, use_lte=True,
                     transfer_bytes=transfer_bytes, device=dev, seed=seed + 2),
        ]
    )


def table(result: Fig02Result) -> str:
    """The Fig. 2 bars."""
    rows = [
        [m.label, to_mbps(m.wifi_bps), to_mbps(m.lte_bps),
         m.device_power_w, m.transfer_energy_j]
        for m in result.measurements
    ]
    return format_table(
        ["configuration", "wifi (Mbps)", "lte (Mbps)", "power (W)", "energy (J)"],
        rows,
    )
