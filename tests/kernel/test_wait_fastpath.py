"""Wait set-up and tear-down on the kernel's allocation-free fast paths.

A thread's single-event and Timeout waits take short paths (one reused
timer Event per process, no re-allocation on wake); these tests pin
that the resulting wake times, order and delta counts are unchanged.
A thread killed on a Timeout wait is covered by
``test_process.py::TestThreads::test_kill_stops_process``.
"""

from repro.kernel import NS, AllOf, AnyOf, Simulator, Timeout


def test_alternating_wait_kinds_wake_in_order():
    sim = Simulator()
    a, b, c = sim.event("a"), sim.event("b"), sim.event("c")
    log = []

    def waiter():
        yield Timeout(10 * NS)
        log.append(("timeout", sim.time))
        yield a
        log.append(("event", sim.time))
        yield AnyOf(b, c)
        log.append(("any_of", sim.time))
        yield AllOf(a, b)
        log.append(("all_of", sim.time))
        yield Timeout(5 * NS)
        log.append(("timeout", sim.time))
        yield a
        log.append(("event", sim.time))
        yield Timeout(5 * NS)
        log.append(("timeout", sim.time))

    def notifier():
        for delay, event in ((15, a), (5, c), (5, b), (10, a), (10, a),
                             (1, b), (1, c)):
            yield Timeout(delay * NS)
            event.notify()
            log.append(("notify", event.name, sim.time))

    sim.spawn(waiter, "waiter")
    sim.spawn(notifier, "notifier")
    sim.run(100 * NS)
    assert log == [
        ("timeout", 10 * NS),
        ("notify", "a", 15 * NS),
        ("event", 15 * NS),
        ("notify", "c", 20 * NS),
        ("any_of", 20 * NS),
        # b (25 ns) alone does not complete the AllOf; a (35 ns) does.
        ("notify", "b", 25 * NS),
        ("notify", "a", 35 * NS),
        ("all_of", 35 * NS),
        ("timeout", 40 * NS),
        ("notify", "a", 45 * NS),
        ("event", 45 * NS),
        # Late b/c notifications reach no stale registration.
        ("notify", "b", 46 * NS),
        ("notify", "c", 47 * NS),
        ("timeout", 50 * NS),
    ]


def test_any_of_leaves_no_stale_registration():
    sim = Simulator()
    a, b = sim.event("a"), sim.event("b")
    wakes = []

    def waiter():
        yield AnyOf(a, b)
        wakes.append(sim.time)
        yield Timeout(20 * NS)
        wakes.append(sim.time)

    def notifier():
        yield Timeout(5 * NS)
        a.notify()
        yield Timeout(5 * NS)
        b.notify()  # the waiter sleeps on its timer now: no wake

    sim.spawn(waiter, "waiter")
    sim.spawn(notifier, "notifier")
    sim.run(100 * NS)
    assert wakes == [5 * NS, 25 * NS]


def test_timeout_zero_wakes_in_next_delta():
    sim = Simulator()
    seen = []

    def thread():
        for __ in range(3):
            seen.append((sim.time, sim.delta_count))
            yield Timeout(0)
        seen.append((sim.time, sim.delta_count))

    sim.spawn(thread, "t")
    sim.run(10 * NS)
    first_delta = seen[0][1]
    assert seen == [(0, first_delta + i) for i in range(4)]


def test_timeout_zero_and_timed_waits_share_the_timer():
    sim = Simulator()
    log = []

    def thread():
        for delay in (0, 3 * NS, 0, 0, 2 * NS):
            yield Timeout(delay)
            log.append(sim.time)

    sim.spawn(thread, "t")
    sim.run(10 * NS)
    assert log == [0, 3 * NS, 3 * NS, 3 * NS, 5 * NS]
