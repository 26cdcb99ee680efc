"""Tolerant JSONL reading for files that are still being written.

Campaign telemetry logs and flight-recorder dumps are append-only JSONL
files, and two consumers now read them *while a writer appends*: the
``obs report`` renderers and the ``obs serve`` live tailer.  A reader
that lands mid-append sees a partial last line — that is normal
operation, not corruption, and must be skipped silently rather than
raised (or even warned about).

* :func:`split_jsonl` — one-shot tolerant parse of a whole file's bytes:
  returns the parsed records, the 1-based numbers of genuinely
  malformed *interior* lines, and whether a partial trailing line
  (no terminating newline, unparseable) was skipped.
* :class:`JsonlTailer` — incremental follower: each :meth:`~JsonlTailer.
  poll` returns the records appended since the last poll, holding any
  incomplete trailing line in a carry buffer until its newline arrives.
  Rotation/truncation (the file shrank) resets the follower to the top.

Both read bytes and decode each line on its own, so a line that is not
UTF-8 is one malformed line, like a line that is not JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["JsonlTailer", "split_jsonl"]


def _json_object(line: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object ``line`` holds, or None: not UTF-8, not JSON, or
    not an object."""
    try:
        record = json.loads(line.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
        return None
    return record if isinstance(record, dict) else None


def split_jsonl(data: bytes) -> Tuple[List[Dict[str, Any]], List[int], bool]:
    """Parse JSONL bytes tolerantly.

    Returns ``(records, bad_line_numbers, partial_tail)`` where
    ``records`` keeps every line that parsed to a JSON object,
    ``bad_line_numbers`` (1-based) lists malformed lines that *were*
    newline-terminated (real corruption worth a warning), and
    ``partial_tail`` is True when the final line lacked a newline and
    did not parse — a concurrent append caught mid-write, skipped
    silently.
    """
    records: List[Dict[str, Any]] = []
    bad_lines: List[int] = []
    partial_tail = False
    complete_tail = data.endswith((b"\n", b"\r"))
    lines = data.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        record = _json_object(line)
        if record is not None:
            records.append(record)
        elif i == len(lines) - 1 and not complete_tail:
            partial_tail = True
        else:
            bad_lines.append(i + 1)
    return records, bad_lines, partial_tail


class JsonlTailer:
    """Incremental follower of an append-only JSONL file.

    Byte-offset based: each poll reads from where the last one stopped,
    consumes only newline-terminated lines, and carries an incomplete
    tail forward.  A missing file yields no records (the writer may not
    have started yet); a shrinking file resets to offset 0 (rotation).
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self.offset = 0
        self.bad_lines = 0
        self.records_read = 0
        self._carry = b""

    def poll(self) -> List[Dict[str, Any]]:
        """Records appended (and newline-completed) since the last poll."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, 2)
                size = fh.tell()
                if size < self.offset:  # rotated/truncated: start over
                    self.offset = 0
                    self._carry = b""
                fh.seek(self.offset)
                chunk = fh.read()
        except FileNotFoundError:
            return []
        self.offset += len(chunk)
        data = self._carry + chunk
        if not data:
            return []
        lines = data.split(b"\n")
        self._carry = lines.pop()  # b"" when data ended with a newline
        records: List[Dict[str, Any]] = []
        for line in lines:
            if not line.strip():
                continue
            record = _json_object(line)
            if record is None:
                self.bad_lines += 1
            else:
                records.append(record)
        self.records_read += len(records)
        return records
