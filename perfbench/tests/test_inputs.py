"""Every generator is a pure function of the seed."""

from repro.analysis import analyze_latency

from perfbench import inputs


def test_corpus_is_deterministic_per_seed(tmp_path):
    first = inputs.write_corpus(7, 5, tmp_path / "a")
    again = inputs.write_corpus(7, 5, tmp_path / "b")
    other = inputs.write_corpus(8, 5, tmp_path / "c")
    assert first == again
    assert first != other


def test_deep_window_family_is_deterministic_per_seed():
    first = inputs.systems_digest(inputs.deep_window_family(3, 4))
    assert first == inputs.systems_digest(inputs.deep_window_family(3, 4))
    assert first != inputs.systems_digest(inputs.deep_window_family(4, 4))


def test_deep_window_deadline_lies_between_typical_and_full_wcl():
    import random

    rng = random.Random(1)
    for index in range(4):
        system, typical, full = inputs.deep_window_system(rng, index, index / 4)
        victim = system["victim"]
        assert typical < victim.deadline < full
        assert analyze_latency(system, victim, include_overload=False).wcl == typical
        overloads = [c for c in system.chains if c.name.startswith("isr")]
        assert len(overloads) == inputs.ISR_COUNTS[index % len(inputs.ISR_COUNTS)]


def test_daemon_schedule_is_deterministic_per_seed():
    first = inputs.daemon_schedule(5, 200, 40, 45.0)
    assert first == inputs.daemon_schedule(5, 200, 40, 45.0)
    assert first != inputs.daemon_schedule(6, 200, 40, 45.0)
    assert inputs.systems_digest(inputs.daemon_systems(5, 3)) == inputs.systems_digest(
        inputs.daemon_systems(5, 3)
    )


def test_daemon_schedule_mix():
    opened, closed, count = inputs.daemon_schedule(9, 400, 80, 45.0)
    assert len(opened) == 400 and len(closed) == 80
    dues = [r.due for r in opened]
    assert dues == sorted(dues) and dues[0] > 0
    # Poisson arrivals at the given rate.
    assert 400 / 45.0 * 0.8 < dues[-1] < 400 / 45.0 * 1.2
    cold_positions = {}
    for position, request in enumerate(opened + closed):
        if request.cold:
            assert request.system not in cold_positions, "a cold system is sent once"
            cold_positions[request.system] = position
        else:
            # A warm request resends a system answered well before it.
            assert position - cold_positions[request.system] >= inputs.WARM_LAG
    assert len(cold_positions) == count
    share = sum(r.cold for r in opened) / len(opened)
    assert 0.24 <= share <= 0.3


def test_soak_input_is_deterministic_per_seed():
    system, horizon = inputs.soak_input(2, 20_000)
    again, same_horizon = inputs.soak_input(2, 20_000)
    assert inputs.systems_digest([system]) == inputs.systems_digest([again])
    assert horizon == same_horizon
    other, _ = inputs.soak_input(3, 20_000)
    assert inputs.systems_digest([system]) != inputs.systems_digest([other])
