"""Real-traffic transport built on the sans-IO MPTCP core.

Two layers:

* :mod:`repro.transport.core` — pure per-subflow transport transitions
  (windows, SACK recovery, RTO policy, RTT estimation) over an explicit
  :class:`~repro.transport.core.SenderState`, with a pluggable clock and
  an emit list instead of IO. The DES sender in :mod:`repro.net.flow`
  and the asyncio runtime below are both thin hosts of this core.
* :mod:`repro.transport.wire` — the struct-packed datagram format.
* :mod:`repro.transport.aio` / ``server`` / ``client`` — the asyncio UDP
  runtime: N sockets as subflows, wall-clock timers, per-subflow energy
  accounting, and a metrics HTTP endpoint. Imported by path (``import
  repro.transport.server``); nothing here re-exports them, so this
  package stays importable from :mod:`repro.net` without a cycle.

The package re-exports the sans-IO core and the wire format, and loads
neither until a name is first read: the DES loads ``core`` alone.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.transport.core import (
        INITIAL_RTO,
        MAX_RTO,
        MIN_RTO,
        AckOp,
        PathProfile,
        ReceiverCore,
        ReceiverState,
        SenderCore,
        SenderState,
        SendOp,
    )
    from repro.transport.wire import (
        WIRE_VERSION,
        AckSegment,
        ByeSegment,
        DataSegment,
        HelloAckSegment,
        HelloSegment,
        WireError,
        decode,
        encode_ack,
        encode_bye,
        encode_data,
        encode_hello,
        encode_hello_ack,
    )

# Resolved on first access (PEP 562): the packet DES hosts the sans-IO
# core and never loads the wire format.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.transport.core": (
        "INITIAL_RTO", "MAX_RTO", "MIN_RTO", "AckOp", "PathProfile", "ReceiverCore",
        "ReceiverState", "SenderCore", "SenderState", "SendOp",
    ),
    "repro.transport.wire": (
        "WIRE_VERSION", "AckSegment", "ByeSegment", "DataSegment", "HelloAckSegment",
        "HelloSegment", "WireError", "decode", "encode_ack", "encode_bye",
        "encode_data", "encode_hello", "encode_hello_ack",
    ),
})

__all__ = [
    "MIN_RTO",
    "MAX_RTO",
    "INITIAL_RTO",
    "SenderState",
    "SenderCore",
    "ReceiverState",
    "ReceiverCore",
    "SendOp",
    "AckOp",
    "PathProfile",
    "WIRE_VERSION",
    "WireError",
    "DataSegment",
    "AckSegment",
    "HelloSegment",
    "HelloAckSegment",
    "ByeSegment",
    "decode",
    "encode_data",
    "encode_ack",
    "encode_hello",
    "encode_hello_ack",
    "encode_bye",
]
