"""Documented convention discrepancies, shipped as data.

Each entry records a place where a commonly quoted form of this
construction is inconsistent with what direct computation forces, together
with the convention this package uses.  Reports surface the notes for the
suites they affect.  `errata.json` is read and parsed once, on first use;
`notes` still returns a fresh list on every call.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=None)
def _table() -> tuple[dict, ...]:
    text = resources.files(__package__).joinpath("errata.json").read_text()
    return tuple(json.loads(text))


def notes(topic: str | None = None) -> list[str]:
    """The note strings, optionally filtered by topic."""
    return [e["note"] for e in _table() if topic is None or e["topic"] == topic]
