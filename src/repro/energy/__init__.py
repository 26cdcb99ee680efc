"""Energy models: the offline substitute for RAPL counters and phone radios.

The paper's measurement section reduces its RAPL/Monsoon readings to the
functional claims of Eq. (1)/(2):

- host power grows with throughput — gently and non-linearly on wired
  Ethernet (~15% over 200-1000 Mbps, Fig. 3a), steeply and linearly on
  WiFi (~90% over 10-50 Mbps, Fig. 3b);
- at equal throughput, high-RTT paths burn more power (Fig. 4);
- each extra subflow adds processing power (Fig. 1);
- total energy is power integrated over the transfer, Eq. (2).

This subpackage implements exactly those shapes: CPU models
(:mod:`repro.energy.cpu`), phone radio models with the published constants
of Huang et al. MobiSys'12 (:mod:`repro.energy.nic`,
:mod:`repro.energy.mobile`), energy-proportional switches
(:mod:`repro.energy.switch`), and the Eq. (2) integration machinery
(:mod:`repro.energy.accounting`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.energy.accounting import ConnectionEnergyMeter, transfer_energy
    from repro.energy.cpu import (
        HostPowerModel,
        PathPowerModel,
        WiredPathPower,
        WirelessPathPower,
        default_wired_host,
        default_wireless_host,
    )
    from repro.energy.mobile import MobileDeviceModel, nexus5
    from repro.energy.nic import LteRadio, RadioModel, WifiRadio
    from repro.energy.switch import SwitchPowerModel

# Resolved on first access (PEP 562): a wired run loads no radio or
# switch model, a fluid run no connection meter.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.energy.accounting": ("ConnectionEnergyMeter", "transfer_energy"),
    "repro.energy.cpu": (
        "HostPowerModel", "PathPowerModel", "WiredPathPower", "WirelessPathPower",
        "default_wired_host", "default_wireless_host",
    ),
    "repro.energy.mobile": ("MobileDeviceModel", "nexus5"),
    "repro.energy.nic": ("LteRadio", "RadioModel", "WifiRadio"),
    "repro.energy.switch": ("SwitchPowerModel",),
})

__all__ = [
    "ConnectionEnergyMeter",
    "HostPowerModel",
    "LteRadio",
    "MobileDeviceModel",
    "PathPowerModel",
    "RadioModel",
    "SwitchPowerModel",
    "WifiRadio",
    "WiredPathPower",
    "WirelessPathPower",
    "default_wired_host",
    "default_wireless_host",
    "nexus5",
    "transfer_energy",
]
