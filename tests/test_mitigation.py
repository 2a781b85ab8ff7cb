import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (closed_form_quench_time, inverse_sweep_angle,
                     quad_sector_area)
from swarmfire.fire import FireFront, area, point_on_front
from swarmfire.mitigation import (FireMitigationRecord, SectorTrack,
                                  angular_control, assign_sectors,
                                  merging_decision, nominal_angular_velocity,
                                  quench_area_rate, repulsion_decision,
                                  repulsion_heading)

TWO_PI = 2.0 * math.pi


def make_fire(a=300.0, b=250.0, center=(0.0, 0.0)):
    return FireFront(0, center, a, b)


def test_quench_area_rate():
    assert quench_area_rate(5.0, 0.1, 1.0, 4.0) == pytest.approx(12.5)
    assert quench_area_rate(7.0, 0.1, 0.0, 4.0) == pytest.approx(70.0)
    cf = 0.1 * 4.0
    assert quench_area_rate(cf, 0.1, 1.0, 4.0) == pytest.approx(1.0)


def test_closed_form_quench_time():
    assert closed_form_quench_time(10000.0, 5, 2.0) == pytest.approx(1000.0)
    assert closed_form_quench_time(10000.0, 10, 2.0) == pytest.approx(500.0)
    assert closed_form_quench_time(0.0, 3, 2.0) == 0.0


def test_assign_sectors_counts_and_bounds():
    f = make_fire()
    members = [(i, point_on_front(f, TWO_PI * i / 8)) for i in range(8)]
    tracks = assign_sectors(f, members)
    assert len(tracks) == 8
    for t in tracks:
        assert t.hi - t.lo == pytest.approx(TWO_PI / 8)
        assert t.lo <= t.theta <= t.hi
        assert t.direction in (-1, 1)


def test_assign_sectors_single_uav():
    f = make_fire()
    tracks = assign_sectors(f, [(5, (400.0, 0.0))])
    assert tracks[0].lo == 0.0
    assert tracks[0].hi == pytest.approx(TWO_PI)


def test_assign_sectors_cyclic_order_preserved():
    f = make_fire()
    # members placed at increasing angles get increasing sectors, listed
    # in sector order
    members = [(11, (0.0, 300.0)), (12, (-300.0, -10.0)), (10, (300.0, 10.0))]
    tracks = assign_sectors(f, members)
    assert [t.uav_id for t in tracks] == [10, 11, 12]
    assert [t.lo for t in tracks] == sorted(t.lo for t in tracks)


def test_assign_sectors_keep_state():
    f = make_fire()
    old = SectorTrack(uav_id=3, lo=0.0, hi=TWO_PI, theta=1.0, direction=-1,
                      joined=True)
    tracks = assign_sectors(f, [(3, (400.0, 0.0)), (4, (-400.0, 0.0))],
                            keep={3: old})
    t3, t4 = tracks
    assert (t3.uav_id, t4.uav_id) == (3, 4)
    assert t3.joined and t3.direction == -1
    assert not t4.joined and t4.direction == 1
    # the swept angle is not carried over: it restarts at the midpoint
    assert t3.theta == 0.5 * (t3.lo + t3.hi)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
                min_size=1, max_size=64),
       st.booleans(), st.data())
def test_assign_sectors_tracks_start_inside_contiguous_sectors(
        positions, with_keep, data):
    """Every track starts at its sector midpoint inside [lo, hi], and the
    sectors tile [0, 2*pi) in order; so a clamp to [lo, hi] right after a
    repartition can change nothing."""
    f = make_fire(center=(1.0, -2.0))
    members = list(enumerate(positions))
    keep = None
    if with_keep:
        kept = data.draw(st.sets(st.sampled_from(range(len(members)))))
        keep = {uid: SectorTrack(uav_id=uid, lo=0.0, hi=1.0, theta=5.0,
                                 direction=-1, joined=True)
                for uid in kept}
    tracks = assign_sectors(f, members, keep=keep)
    assert sorted(t.uav_id for t in tracks) == list(range(len(members)))
    assert tracks[0].lo == 0.0
    assert abs(tracks[-1].hi - TWO_PI) <= math.ulp(TWO_PI)
    for prev, t in zip(tracks, tracks[1:]):
        assert prev.hi == t.lo
    for t in tracks:
        assert t.lo < t.hi
        assert t.lo <= t.theta == 0.5 * (t.lo + t.hi) <= t.hi
        if keep and t.uav_id in keep:
            assert t.joined and t.direction == -1


def test_assign_sectors_empty_raises():
    with pytest.raises(ValueError):
        assign_sectors(make_fire(), [])


def test_sector_areas_equal_in_parametric_angle():
    """The sectors assign_sectors hands out have equal areas: each bound,
    mapped to its polar angle, delimits area/n by quadrature over the
    polar angle."""
    for a, b in [(300.0, 250.0), (150.0, 100.0), (200.0, 200.0),
                 (100.0, 100.0), (50.0, 50.0)]:
        f = make_fire(a, b)
        for n in range(1, 9):
            members = [(i, point_on_front(f, TWO_PI * (i + 0.5) / n))
                       for i in range(n)]
            for t in assign_sectors(f, members):
                lo = inverse_sweep_angle(a, b, t.lo)
                hi = inverse_sweep_angle(a, b, t.hi)
                assert quad_sector_area(a, b, lo, hi) == pytest.approx(
                    area(f) / n, rel=1e-12)


def test_nominal_angular_velocity_circle():
    assert nominal_angular_velocity(100.0, 100.0, 10.0, 1.234) == pytest.approx(0.1)


def test_nominal_angular_velocity_ellipse_axis():
    # at theta=0 the local tangential radius is b
    assert nominal_angular_velocity(300.0, 250.0, 10.0, 0.0) == pytest.approx(
        10.0 / 250.0)


def test_nominal_angular_velocity_shrinks_with_size():
    small = nominal_angular_velocity(50.0, 50.0, 10.0, 0.7)
    big = nominal_angular_velocity(500.0, 500.0, 10.0, 0.7)
    assert big < small


def test_angular_control_pure_sweep():
    theta, ref, mu = angular_control(1.0, 1.0, 1, 0.0, TWO_PI, 0.1, -1.0,
                                     0.05, 1.0)
    assert ref == pytest.approx(1.1)
    assert theta == pytest.approx(1.1)
    assert mu == 1


def test_angular_control_error_decay():
    """|theta - theta_ref| shrinks as exp(K_m t) with no sweep."""
    theta, ref, mu = 0.5, 0.0, 1
    dt, km = 0.1, -1.0
    t = 0.0
    while abs(theta - ref) >= 1e-3:
        theta, ref, mu = angular_control(theta, ref, mu, -10.0, 10.0, 0.0,
                                         km, 0.05, dt)
        t += dt
    assert t <= 8.0
    assert t == pytest.approx(-math.log(1e-3 / 0.5), abs=0.2)


def test_angular_control_direction_flip():
    # reference within the turn margin of the upper bound, moving positive
    hi = 1.0
    _, ref, mu = angular_control(0.99, 0.99, 1, 0.0, hi, 0.5, -1.0, 0.05, 0.1)
    assert mu == -1
    assert ref <= hi


def test_angular_control_reference_stays_in_bounds():
    theta, ref, mu = 0.5, 0.5, 1
    lo, hi, margin = 0.0, 1.2566, 0.05
    for _ in range(6000):
        theta, ref, mu = angular_control(theta, ref, mu, lo, hi, 0.04, -1.0,
                                         margin, 0.1)
        assert lo - margin <= ref <= hi + margin
        assert mu in (-1, 1)


@settings(max_examples=400, deadline=None)
@given(x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0),
       pick=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       direction=st.sampled_from([-1, 1]), lo=st.floats(-10.0, 0.0),
       width=st.floats(0.0, 10.0), omega=st.floats(0.0, 10.0),
       track_gain=st.floats(-100.0, -1e-9), turn_margin=st.floats(1e-9, 1.0),
       dt=st.floats(1e-6, 10.0))
def test_angular_control_matches_the_oracle_law(x, y, pick, direction, lo,
                                                width, omega, track_gain,
                                                turn_margin, dt):
    """Bit for bit, signed zeros included, the law as first written, which
    multiplies a zero error by the decay factor too.  theta and theta_ref
    are each +0, -0, x or y, so equal angles and zero errors are common.
    Equal angles come back equal, so a track that passes its one angle as
    both keeps one angle."""
    theta, theta_ref = ((0.0, -0.0, x, y)[i] for i in pick)
    args = (theta, theta_ref, direction, lo, lo + width, omega, track_gain,
            turn_margin, dt)
    out = angular_control(*args)
    assert repr(out) == repr(oracles.angular_control(*args))
    assert theta != theta_ref or out[0] == out[1]


def test_merging_decision_clauses():
    assert merging_decision(2e5, 5, 1, 1e5, 2, 2)        # big fire
    assert merging_decision(1e4, 1, 1, 1e5, 2, 2)        # few fires left
    assert not merging_decision(2e5, 5, 2, 1e5, 2, 2)    # swarm cap
    assert not merging_decision(1e4, 5, 1, 1e5, 2, 2)    # neither disjunct


def test_repulsion_decision():
    assert repulsion_decision(0.7, 0.5, 0.9, True, False)
    assert not repulsion_decision(0.7, 0.5, 0.9, False, False)  # not busy
    assert not repulsion_decision(0.95, 0.5, 0.9, True, False)  # above gamma
    assert not repulsion_decision(0.3, 0.5, 0.9, True, False)   # below gamma0
    assert not repulsion_decision(0.7, 0.5, 0.9, True, True)    # merge wins


def test_repulsion_heading():
    assert repulsion_heading(0.0) == pytest.approx(math.pi)
    assert repulsion_heading(math.pi / 2) == pytest.approx(-math.pi / 2)
    assert repulsion_heading(math.pi) == pytest.approx(0.0, abs=1e-12)


def test_record_counts():
    rec = FireMitigationRecord(swarm_ids=[1, 2])
    rec.tracks = [SectorTrack(uav_id=i, lo=0, hi=1, theta=0, joined=(i < 2))
                  for i in range(4)]
    assert rec.n_swarms == 2
    assert rec.joined_count() == 2
