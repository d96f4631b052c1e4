"""Coverage-facet accessors over the one observability session.

The session itself — scope stack, flight-recorder rings, the null
handles it hands out while coverage is off, and the determinism
guarantee — lives in :mod:`repro.sessions`. Components import this
module as ``coverage`` and use the two accessors whose cost profiles
that module describes: :func:`current` (never None) to fetch handles
once, :func:`active` (``None`` while coverage is off) to guard scopes,
snapshots and merges.
"""

from __future__ import annotations

from typing import Optional

from .. import sessions

__all__ = ["enable", "disable", "current", "active"]


def enable() -> sessions.Session:
    """Switch coverage on with an empty root scope and no rings."""
    return sessions.current().set_coverage(True)


def disable() -> None:
    """Switch coverage off; components fall back to null handles."""
    sessions.current().set_coverage(False)


def current() -> sessions.Session:
    """The session, coverage on or off. Never None."""
    return sessions.current()


def active() -> Optional[sessions.Session]:
    """The session while coverage is on, else ``None``."""
    session = sessions.current()
    return session if session.coverage_on else None
