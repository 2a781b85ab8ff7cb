import math
import struct

import numpy as np
from hypothesis import example, given, strategies as st

from swarmfire.rng import RngStreams, run_seed_sequence, uniform


def test_same_inputs_same_draws():
    a = RngStreams(2024, 3, 5)
    b = RngStreams(2024, 3, 5)
    assert np.array_equal(a.world.random(100), b.world.random(100))
    for k in range(5):
        assert np.array_equal(a.agent(k).random(50), b.agent(k).random(50))


def test_runs_are_independent():
    a = RngStreams(2024, 0, 2)
    b = RngStreams(2024, 1, 2)
    assert not np.array_equal(a.world.random(100), b.world.random(100))


def test_agents_are_independent():
    s = RngStreams(2024, 0, 3)
    d0 = s.agent(0).random(100)
    d1 = s.agent(1).random(100)
    assert not np.array_equal(d0, d1)


def test_world_stream_unaffected_by_agent_count():
    """World placement draws cannot depend on how many agents spawn."""
    a = RngStreams(7, 0, 2)
    b = RngStreams(7, 0, 15)
    assert np.array_equal(a.world.random(64), b.world.random(64))


def test_seed_sequence_distinct_per_run():
    s0 = run_seed_sequence(2024, 0).generate_state(4)
    s1 = run_seed_sequence(2024, 1).generate_state(4)
    assert not np.array_equal(s0, s1)


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


@given(st.integers(0, 2**32), st.floats(0.0, math.pi / 3),
       st.floats(1.0, 1.0e5))
@example(0, 0.0, 10000.0)
def test_uniform_matches_generator_uniform(seed, phi0, w):
    """rng.uniform gives Generator.uniform's double, on twin streams, for
    every range the engine and the search draw from."""
    ours = np.random.Generator(np.random.Philox(seed))
    numpy = np.random.Generator(np.random.Philox(seed))
    for low, high in [(-math.pi, math.pi), (-phi0, phi0), (0.0, w),
                      (0.0, 1.0)] * 4:
        got = uniform(ours, low, high)
        assert type(got) is float
        assert bits(got) == bits(numpy.uniform(low, high))
