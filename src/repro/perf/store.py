"""Append-only JSONL disk tier for :class:`repro.perf.cache.EvalCache`.

The in-memory cache already uses content-addressed keys (SHA-256 of the
net's canonical text + canonical workload features — see
:mod:`repro.perf.fingerprint`), which are stable across processes and
sessions.  This module adds the missing half: a file two processes can
share so that serving restarts and repeated sweeps warm-start instead of
re-simulating.

Format: one JSON object per line, ``{"k": <key>, "v": <value>}``.  The
design leans on three properties:

* **Atomic appends.**  Every entry is written with a single
  ``os.write`` to a file opened with ``O_APPEND`` — POSIX guarantees
  the kernel serializes such writes, so concurrent writers interleave
  whole lines, never bytes.  No locks, no rename dance.
* **Corruption-tolerant loads.**  A reader that finds an undecodable
  line skips it with a warning instead of failing the load.  An
  incomplete final line (a writer crashed mid-write, or a reader raced
  an in-flight append on a filesystem without the POSIX guarantee) is
  treated as a *pending tail*: the read offset stays before it, so a
  later :meth:`reload` picks the entry up once the line is complete.
* **Exact float round-trips.**  ``json`` serializes floats with
  ``repr``, which Python guarantees round-trips every finite float
  bit-for-bit — so a makespan read back from disk equals the one the
  engine computed.  (Non-finite floats are refused: JSON has no
  portable encoding for them.)

Values must be JSON-representable plain data; anything else (e.g. an
object with no JSON form) is *unspillable* — it stays in the in-memory
tier and is counted, never guessed at.

Duplicate keys are benign: two processes that simulate the same point
concurrently both append, and replay keeps the last value — which is
byte-identical anyway, because the key pins the computation.
"""

from __future__ import annotations

import json
import logging
import math
import os
from typing import Any

logger = logging.getLogger("repro.perf.store")


def spillable(value: Any) -> bool:
    """True when ``value`` survives a JSON round-trip unchanged."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        # Tuples come back as lists; only accept lists so the round
        # trip preserves equality *and* type.
        return isinstance(value, list) and all(spillable(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and spillable(v) for k, v in value.items())
    return False


class PersistentStore:
    """One JSONL file of ``key -> value`` entries, shared across processes.

    Attributes:
        path: The backing file (created on first append).
        corrupt_lines: Undecodable complete lines skipped so far (a
            warning is logged for each batch of them).
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self.corrupt_lines = 0
        self._offset = 0  # bytes of the file already replayed
        self._tail = b""  # pending incomplete final line, if any

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> dict[str, Any]:
        """Replay the whole file from the start into a fresh dict."""
        self._offset = 0
        self._tail = b""
        self.corrupt_lines = 0
        entries: dict[str, Any] = {}
        self.reload_into(entries)
        return entries

    def reload_into(self, entries: dict[str, Any]) -> int:
        """Replay entries appended since the last load/reload.

        Returns the number of entries applied.  Safe to call while other
        processes are appending: complete lines are applied, an
        in-flight tail is deferred to the next call.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return 0
        if not data:
            return 0
        self._offset += len(data)
        data = self._tail + data
        self._tail = b""
        lines = data.split(b"\n")
        if lines[-1]:
            # No trailing newline: an incomplete (in-flight or
            # truncated) final line.  Hold it back; if a writer
            # completes it, the next reload stitches it together — if
            # nothing ever completes it, it is simply never applied.
            self._tail = lines[-1]
        del lines[-1]
        applied = 0
        corrupt = 0
        for line in lines:
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["k"]
                value = entry["v"]
            except (ValueError, TypeError, KeyError):
                corrupt += 1
                continue
            if not isinstance(key, str):
                corrupt += 1
                continue
            entries[key] = value
            applied += 1
        if corrupt:
            self.corrupt_lines += corrupt
            logger.warning(
                "persistent cache %s: skipped %d corrupt line(s) "
                "(truncated or damaged tail); %d entries recovered",
                self.path,
                corrupt,
                applied,
            )
        if self._tail:
            logger.warning(
                "persistent cache %s: holding back an incomplete final "
                "line (%d bytes) until a writer completes it",
                self.path,
                len(self._tail),
            )
        return applied

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, key: str, value: Any) -> bool:
        """Durably append one entry; returns False when the value is not
        JSON-spillable (the caller keeps it in memory only)."""
        if not spillable(value):
            return False
        line = (
            json.dumps({"k": key, "v": value}, separators=(",", ":")).encode()
            + b"\n"
        )
        fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line)  # one write: atomic under O_APPEND
        finally:
            os.close(fd)
        return True
