"""Flight recorder: a bounded ring of structured events, dumped on demand.

Metrics tell you *that* a serve stalled; the flight recorder tells you
*what happened just before*.  It keeps the last ``capacity`` structured
events — loss bursts, RTO expiries, path birth/death, HELLO retries,
campaign run failures — in memory at a cost low enough to stay on in
production paths, and writes them out as JSONL only when something asks:

* an explicit :meth:`~FlightRecorder.dump` (the ``/events`` surface's
  big sibling, and the ``--flight-dump`` serve flag);
* a **signal** — :meth:`~FlightRecorder.install_signal_handler` arms a
  SIGUSR-style dump request for long-running serves.

Events are plain dicts plus a monotonically increasing ``seq``, so SSE
streams and pollers can resume from the last sequence number they saw.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

__all__ = ["FLIGHT_SCHEMA", "FlightEvent", "FlightRecorder"]

#: Schema tag on the header line of a flight-recorder dump.
FLIGHT_SCHEMA = "repro.obs.flight/1"

#: Default ring capacity — minutes of context at transport event rates.
DEFAULT_CAPACITY = 2048


class FlightEvent:
    """One recorded event: sequence number, timestamp, kind, fields."""

    __slots__ = ("seq", "ts", "kind", "fields")

    def __init__(self, seq: int, ts: float, kind: str,
                 fields: Dict[str, Any]):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.fields = fields

    def to_json_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                **self.fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent(#{self.seq} {self.kind} @{self.ts:.3f})"


class FlightRecorder:
    """Bounded in-memory event ring with dump-on-trigger."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        clock=time.time,
        dump_path: "str | Path | None" = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self.dump_path = Path(dump_path) if dump_path is not None else None
        self.counts: Dict[str, int] = {}
        self.recorded = 0
        self.dropped = 0
        self.dumps = 0
        self._events: Deque[FlightEvent] = deque(maxlen=capacity)
        self._next_seq = 1

    # ------------------------------------------------------------- recording

    def record(self, kind: str, **fields: Any) -> FlightEvent:
        """Append one event, evicting the oldest when the ring is full."""
        event = FlightEvent(self._next_seq, self.clock(), kind, fields)
        self._next_seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.recorded += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        return event

    # --------------------------------------------------------------- reading

    def events(self, *, since: int = 0, kinds=None,
               limit: Optional[int] = None) -> List[FlightEvent]:
        """Retained events with ``seq > since`` (oldest first)."""
        out = [e for e in self._events
               if e.seq > since and (kinds is None or e.kind in kinds)]
        if limit is not None and len(out) > limit:
            out = out[-limit:]
        return out

    @property
    def last_seq(self) -> int:
        """The newest sequence number handed out (0 before any event)."""
        return self._next_seq - 1

    def snapshot(self, limit: int = 250) -> Dict[str, Any]:
        """The ``/events`` document: counts plus the newest events."""
        return {
            "schema": FLIGHT_SCHEMA,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "last_seq": self.last_seq,
            "counts": dict(sorted(self.counts.items())),
            "events": [e.to_json_dict() for e in self.events(limit=limit)],
        }

    # --------------------------------------------------------------- dumping

    def dump(self, path: "str | Path | None" = None, *,
             reason: str = "request") -> Path:
        """Write header + retained events as JSONL; returns the path."""
        target = Path(path) if path is not None else self.dump_path
        if target is None:
            raise ValueError("no dump path configured or given")
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as fh:
            header = {"schema": FLIGHT_SCHEMA, "reason": reason,
                      "dumped_unix": self.clock(), "recorded": self.recorded,
                      "dropped": self.dropped,
                      "counts": dict(sorted(self.counts.items()))}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self._events:
                fh.write(json.dumps(event.to_json_dict(), sort_keys=True,
                                    default=str) + "\n")
        self.dumps += 1
        return target

    def install_signal_handler(self, signum: Optional[int] = None) -> bool:
        """Dump on a signal (default SIGUSR1); False when unsupported.

        Only usable from the main thread of the main interpreter —
        callers on other threads get ``False``, not an exception.
        """
        import signal

        if signum is None:
            signum = getattr(signal, "SIGUSR1", None)
            if signum is None:  # pragma: no cover - non-POSIX platforms
                return False

        def _on_signal(_signum, _frame):
            try:
                self.dump(reason=f"signal:{_signum}")
            except (OSError, ValueError):
                pass

        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # not the main thread
            return False
        return True
