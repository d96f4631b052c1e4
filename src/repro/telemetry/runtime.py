"""Metrics-facet accessors over the one observability session.

The session itself — registry and tracer, the null handles it hands
out while metrics are off, and the determinism guarantee — lives in
:mod:`repro.sessions`. Components import this module as ``telemetry``
and use the two accessors whose cost profiles that module describes:
:func:`current` (never None) to fetch handles once, :func:`active`
(``None`` while metrics are off) to guard work that is not free.
"""

from __future__ import annotations

from typing import Optional

from .. import sessions

__all__ = ["enable", "disable", "current", "active"]


def enable() -> sessions.Session:
    """Switch metrics on with a fresh registry and tracer."""
    return sessions.current().set_metrics(True)


def disable() -> None:
    """Switch metrics off; components fall back to null handles."""
    sessions.current().set_metrics(False)


def current() -> sessions.Session:
    """The session, metrics on or off. Never None."""
    return sessions.current()


def active() -> Optional[sessions.Session]:
    """The session while metrics are on, else ``None``."""
    session = sessions.current()
    return session if session.metrics_on else None
