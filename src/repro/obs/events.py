"""Structured solver-event log.

Where metrics answer "how many" and spans answer "where did time go", the
event log answers "what happened, in order": each entry is one timestamped
record of a solver-level occurrence — a satisfiability check with its
conflict/propagation/shrink counts, a scheduler fallback, a cache decision.
The log is bounded (a ring of the most recent :attr:`EventLog.limit`
entries, with a dropped-count so truncation is never silent) and exports to
a JSON document for offline analysis.

Note on restarts: the CDCL core has no restart policy (learned clauses
persist across the incremental solver's checks instead, and liquid-inference
checks are far too small for restarts to fire), so event records carry no
restart field; see "SAT-core heuristics" in ``docs/smt.md``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional

DEFAULT_EVENT_LIMIT = 20000


class EventLog:
    """A bounded, timestamped log of structured solver events."""

    def __init__(self, enabled: bool = False, limit: int = DEFAULT_EVENT_LIMIT) -> None:
        self.enabled = enabled
        self.limit = limit
        self.dropped = 0
        self._events: Deque[Dict[str, object]] = deque()

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, type: str, **fields: object) -> None:
        if not self.enabled:
            return
        event: Dict[str, object] = {"type": type, "ts": time.time(), "pid": os.getpid()}
        event.update(fields)
        self._events.append(event)
        if len(self._events) > self.limit:
            self._events.popleft()
            self.dropped += 1

    # -- cross-process assembly ----------------------------------------------

    def drain(self) -> List[Dict[str, object]]:
        events = list(self._events)
        self._events.clear()
        return events

    def absorb(self, events: Optional[List[Dict[str, object]]]) -> None:
        if not events:
            return
        for event in events:
            self._events.append(event)
            if len(self._events) > self.limit:
                self._events.popleft()
                self.dropped += 1

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        """Events sorted by timestamp (merged worker logs interleave)."""
        ordered = sorted(self._events, key=lambda event: event.get("ts", 0.0))
        return {"events": ordered, "dropped": self.dropped}

    def export(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2)
            handle.write("\n")
