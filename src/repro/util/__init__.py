"""Host-side utilities shared across the simulator's observability layers."""

from __future__ import annotations

import os


def env_int(name: str, default: int, minimum: int) -> int:
    """Integer knob ``name`` from the environment (``default`` when unset).

    Raises ``ValueError`` naming the knob when the value is not an
    integer or is below ``minimum``: a bad knob must fail, never be
    clamped into a silent default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value
