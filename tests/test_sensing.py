import math

import pytest

from swarmfire.config import SensingParams
from swarmfire.fire import FireFront, FireState, distance_to_front
from swarmfire.sensing import (active_fires, cull_distance,
                               detection_probability, sample)

SENSING = SensingParams()


def temperature_at(fires: list[FireFront], p: tuple[float, float],
                   ambient: float, fire_temp: float, temp_sigma: float) -> float:
    """Oracle for the field temperature at p: ambient + (fire - ambient) *
    max Gaussian over the active fires, without culling."""
    best = 0.0
    inv = 1.0 / (2.0 * temp_sigma * temp_sigma)
    for f in active_fires(fires):
        d = distance_to_front(f, p)
        g = math.exp(-d * d * inv)
        if g > best:
            best = g
    return ambient + (fire_temp - ambient) * best


def make_fire(a=100.0, b=100.0, center=(0.0, 0.0), fid=0):
    return FireFront(fid, center, a, b)


def test_temperature_inside_fire():
    f = make_fire()
    assert temperature_at([f], (10.0, 0.0), 300.0, 1200.0, 250.0) == 1200.0


def test_temperature_no_fires():
    assert temperature_at([], (0.0, 0.0), 300.0, 1200.0, 250.0) == 300.0


def test_temperature_one_sigma_out():
    f = make_fire()
    t = temperature_at([f], (100.0 + 250.0, 0.0), 300.0, 1200.0, 250.0)
    assert t == pytest.approx(300.0 + 900.0 * math.exp(-0.5))


def test_temperature_max_combination():
    near = make_fire(center=(0.0, 0.0), fid=0)
    far = make_fire(center=(5000.0, 0.0), fid=1)
    t_both = temperature_at([near, far], (150.0, 0.0), 300.0, 1200.0, 250.0)
    t_near = temperature_at([near], (150.0, 0.0), 300.0, 1200.0, 250.0)
    assert t_both == t_near
    assert t_both <= 1200.0


def test_temperature_ignores_extinguished():
    f = make_fire()
    f.state = FireState.EXTINGUISHED
    assert temperature_at([f], (0.0, 0.0), 300.0, 1200.0, 250.0) == 300.0


def test_detection_probability_values():
    assert detection_probability(0.0, 100.0, 300.0) == 1.0
    assert detection_probability(100.0, 100.0, 300.0) == pytest.approx(
        math.exp(-0.5))
    assert detection_probability(400.0, 100.0, 300.0) == 0.0


def test_detection_probability_monotone():
    last = 1.1
    for d in range(0, 301, 10):
        p = detection_probability(float(d), 100.0, 300.0)
        assert p <= last
        last = p


def test_cull_distance_covers_both_mechanisms():
    cut = cull_distance(SENSING)
    assert cut >= SENSING.sensing_radius
    # temperature excess at the cull distance is below 0.01 K
    excess = (SENSING.fire_temp - SENSING.ambient_temp) * math.exp(
        -cut * cut / (2 * SENSING.temp_sigma ** 2))
    assert excess <= 0.0100001


def test_sample_first_reading_zero_rate():
    f = make_fire()
    r = sample((500.0, 0.0), [f], None, 1.0, SENSING)
    assert r.temp_rate == 0.0


def test_sample_static_field_zero_rate():
    f = make_fire()
    r1 = sample((500.0, 0.0), [f], None, 1.0, SENSING)
    r2 = sample((500.0, 0.0), [f], r1, 1.0, SENSING)
    assert r2.temp_rate == 0.0


def test_sample_rate_positive_when_approaching():
    f = make_fire()
    r1 = sample((600.0, 0.0), [f], None, 1.0, SENSING)
    r2 = sample((580.0, 0.0), [f], r1, 1.0, SENSING)
    assert r2.temp_rate > 0.0


def test_sample_detection_descriptor_threshold():
    f = make_fire(a=300.0, b=250.0, center=(1000.0, 1000.0))
    # just outside on the major axis, inside the gamma=0.9 shell
    d_detect = 100.0 * math.sqrt(-2.0 * math.log(0.9))
    p_in = (1000.0 + 300.0 + 0.5 * d_detect, 1000.0)
    r = sample(p_in, [f], None, 1.0, SENSING)
    assert r.detected is True
    assert r.fire_id == 0
    # between detect shell and sensing radius: candidate but no detection
    p_out = (1000.0 + 300.0 + 200.0, 1000.0)
    r = sample(p_out, [f], None, 1.0, SENSING)
    assert r.detected is False
    assert r.fire_id == 0
    assert 0.0 < r.probability < 0.9


def test_sample_heading_points_at_front():
    f = make_fire(center=(0.0, 0.0))
    r = sample((250.0, 0.0), [f], None, 1.0, SENSING)
    assert r.heading_to_fire == pytest.approx(math.pi, abs=1e-6) or \
        r.heading_to_fire == pytest.approx(-math.pi, abs=1e-6)


def test_sample_identical_for_equidistant_uavs():
    f = make_fire(center=(0.0, 0.0))
    ra = sample((200.0, 0.0), [f], None, 1.0, SENSING)
    rb = sample((0.0, -200.0), [f], None, 1.0, SENSING)
    assert ra.temperature == pytest.approx(rb.temperature)
    assert ra.probability == pytest.approx(rb.probability)


def test_sample_culling_matches_full_evaluation():
    fires = [make_fire(center=(0.0, 0.0), fid=0),
             make_fire(center=(9000.0, 9000.0), fid=1)]
    pos = (200.0, 100.0)
    full = sample(pos, fires, None, 1.0, SENSING, cutoff=1e9)
    culled = sample(pos, fires, None, 1.0, SENSING)
    assert full.temperature == pytest.approx(culled.temperature, abs=1e-9)
    assert full.fire_id == culled.fire_id
    assert full.probability == culled.probability


def test_sample_temperature_matches_field_oracle():
    fires = [make_fire(a=300.0, b=250.0, center=(1000.0, 1000.0), fid=0),
             make_fire(center=(1600.0, 1200.0), fid=1)]
    for pos in [(1000.0, 1000.0), (1350.0, 1050.0), (1450.0, 1100.0),
                (2000.0, 2000.0), (9000.0, 9000.0)]:
        r = sample(pos, fires, None, 1.0, SENSING, cutoff=1e9)
        assert r.temperature == temperature_at(
            fires, pos, SENSING.ambient_temp, SENSING.fire_temp,
            SENSING.temp_sigma)
