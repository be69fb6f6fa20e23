"""Event queue determinism."""

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        q = EventQueue()
        order = []
        q.schedule(5, lambda: order.append(5))
        q.schedule(2, lambda: order.append(2))
        q.schedule(9, lambda: order.append(9))
        q.run_due(10)
        assert order == [2, 5, 9]

    def test_same_cycle_fires_in_schedule_order(self):
        q = EventQueue()
        order = []
        for k in range(5):
            q.schedule(3, lambda k=k: order.append(k))
        q.run_due(3)
        assert order == [0, 1, 2, 3, 4]

    def test_future_events_wait(self):
        q = EventQueue()
        fired = []
        q.schedule(10, lambda: fired.append(1))
        assert q.run_due(9) == 0
        assert not fired
        assert q.run_due(10) == 1
        assert fired

    def test_next_cycle(self):
        q = EventQueue()
        assert q.next_cycle() is None
        q.schedule(7, lambda: None)
        assert q.next_cycle() == 7

    def test_events_scheduled_during_run_respected(self):
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            q.schedule(1, lambda: order.append("nested"))

        q.schedule(1, first)
        q.run_due(1)
        assert order == ["first", "nested"]

    def test_len(self):
        q = EventQueue()
        q.schedule(1, lambda: None)
        q.schedule(2, lambda: None)
        assert len(q) == 2


class TestRunDueReentrancy:
    """The reentrancy contract the engine loops lean on: anything
    a callback schedules at ``cycle <= now`` fires within the same
    ``run_due`` call, in (cycle, seq) order."""

    def test_same_cycle_chain_drains_in_one_call(self):
        q = EventQueue()
        order = []

        def link(n):
            order.append(n)
            if n < 4:
                q.schedule(3, lambda: link(n + 1))

        q.schedule(3, lambda: link(0))
        fired = q.run_due(3)
        assert order == [0, 1, 2, 3, 4]
        assert fired == 5
        assert len(q) == 0  # nothing due was left behind

    def test_earlier_cycle_schedule_fires_immediately(self):
        q = EventQueue()
        order = []

        def schedules_into_the_past():
            order.append("now")
            q.schedule(1, lambda: order.append("past"))  # cycle < now

        q.schedule(5, schedules_into_the_past)
        q.schedule(7, lambda: order.append("later"))
        assert q.run_due(6) == 2
        assert order == ["now", "past"]  # "past" is due immediately
        assert q.next_cycle() == 7  # future events untouched

    def test_mid_drain_schedules_order_after_preexisting_same_cycle(self):
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            # Scheduled mid-drain at the same cycle: _seq puts it after
            # everything already pending at cycle 4.
            q.schedule(4, lambda: order.append("nested"))

        q.schedule(4, first)
        q.schedule(4, lambda: order.append("second"))
        q.run_due(4)
        assert order == ["first", "second", "nested"]

    def test_callback_scheduling_future_event_does_not_fire(self):
        q = EventQueue()
        order = []

        def now_then_later():
            order.append("now")
            q.schedule(11, lambda: order.append("later"))

        q.schedule(10, now_then_later)
        assert q.run_due(10) == 1
        assert order == ["now"]
        assert q.next_cycle() == 11
