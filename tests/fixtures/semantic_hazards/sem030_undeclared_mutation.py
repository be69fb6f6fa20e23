"""SEM030: a certified-pure method with an undeclared mutation.

``next_wake`` is on the fast loop's certified-pure path: the loop
may call it at any visited cycle, or skip the call, and trust the
answer.  This controller "instruments" it with a probe counter — the
mutation is folded into det_state (so SEM010 stays silent; the chain
is sound) but the purity certificate is now a lie: evaluating
next_wake more or fewer times changes simulator state.
"""


class WindowCertController:
    """Audited because it bears a det_state, like the real models."""

    def __init__(self):
        self._probe_calls = 0
        self.queue = []

    def next_wake(self, now):
        # SEM030: a certified-pure method mutates state on every call.
        self._probe_calls += 1
        return now + len(self.queue)

    def det_state(self):
        return [self._probe_calls, len(self.queue)]
