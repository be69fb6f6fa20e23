"""Runtime cross-check of the analyzer's purity certificates.

The static effect analysis (:mod:`repro.analysis.semantic.effects`)
certifies methods like ``next_wake``/``can_accept``/``skip_plan`` as
window-invariant: the fast engine calls them only at the cycles it
visits, or not at all, so they must not change simulated state.  Static
analysis has documented blind spots (dynamic dispatch, ``setattr``,
unresolved callees), so this module closes the loop at runtime: with
``REPRO_VERIFY_EFFECTS=1`` every certified call is bracketed by
``det_state()`` snapshots, and a mutation observed across a certified
call raises :class:`EffectViolation` at the exact call instead of
surfacing later as a determinism-chain divergence.

Snapshotting costs a full det_state walk per call, so the check is for
smoke runs and CI, not production sweeps.  ``REPRO_VERIFY_EFFECTS_EVERY=N``
samples every Nth call to cut the overhead.
"""

from __future__ import annotations

import os

from repro.util import env_int

ENV_ENABLE = "REPRO_VERIFY_EFFECTS"
ENV_EVERY = "REPRO_VERIFY_EFFECTS_EVERY"

#: Certified window-invariant hooks checked per component kind.
CHANNEL_HOOKS = ("next_wake", "pending", "can_accept")
CORE_HOOKS = ("skip_plan",)
HIERARCHY_HOOKS = ("can_accept_store",)


class EffectViolation(AssertionError):
    """A certified-pure method mutated ``det_state()`` at runtime."""


def enabled() -> bool:
    return os.environ.get(ENV_ENABLE, "") not in ("", "0")


def check_every() -> int:
    """Check every Nth certified call (``REPRO_VERIFY_EFFECTS_EVERY``)."""
    return env_int(ENV_EVERY, 1, 1)


def _wrap(obj, method_name: str, state_fn, label: str, every: int) -> None:
    inner = getattr(obj, method_name)
    calls = [0]

    def checked(*args, **kwargs):
        calls[0] += 1
        if calls[0] % every:
            return inner(*args, **kwargs)
        before = tuple(state_fn())
        result = inner(*args, **kwargs)
        after = tuple(state_fn())
        if before != after:
            raise EffectViolation(
                f"{label}.{method_name}() holds a window-invariance "
                f"certificate but changed det_state() during the call; "
                f"the static certificate (SEM030) is wrong or the "
                f"mutation is undeclared"
            )
        return result

    checked.__wrapped_for_effects__ = method_name
    setattr(obj, method_name, checked)


def instrument_system(system, every: int | None = None) -> int:
    """Bracket every certified-pure hook on ``system`` with det_state
    snapshots.  Returns the number of methods wrapped."""
    every = check_every() if every is None else max(1, int(every))
    wrapped = 0
    for channel in system.memory.channels:
        label = f"channel{channel.channel_id}"
        for name in CHANNEL_HOOKS:
            if hasattr(channel, name):
                _wrap(channel, name, channel.det_state, label, every)
                wrapped += 1
    for core in system.cores:
        label = f"core{core.core_id}"
        for name in CORE_HOOKS:
            if hasattr(core, name):
                _wrap(core, name, core.det_state, label, every)
                wrapped += 1
    hierarchy = system.hierarchy
    for name in HIERARCHY_HOOKS:
        if hasattr(hierarchy, name) and hasattr(hierarchy, "det_state"):
            _wrap(hierarchy, name, hierarchy.det_state, "hierarchy", every)
            wrapped += 1
    return wrapped
