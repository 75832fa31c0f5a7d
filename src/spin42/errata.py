"""Documented convention discrepancies, shipped as data.

Each entry records a place where a commonly quoted form of this
construction is inconsistent with what direct computation forces, together
with the convention this package uses.  Reports surface the notes for the
suites they affect.
"""

from __future__ import annotations

import json
from importlib import resources


def entries() -> list[dict]:
    text = resources.files(__package__).joinpath("errata.json").read_text()
    return json.loads(text)


def notes(topic: str | None = None) -> list[str]:
    """The note strings, optionally filtered by topic."""
    return [e["note"] for e in entries() if topic is None or e["topic"] == topic]
