"""Step two Worlds side by side and name the first tick and fact where
they part.  The twin may run other stages (an oracle, a wrapper, expired
deadlines); ``step`` checks that it ends every tick as the World does."""

import struct

_pack2, _pack3, _pack4 = (struct.Struct(f"<{n}d").pack for n in (2, 3, 4))


def reading_bits(r):
    """A SensorReading by bits, so that NaN and -0.0 compare as written."""
    if r is None:
        return None
    heading = (None if r.heading_to_fire is None
               else struct.pack("<d", r.heading_to_fire))
    return (_pack3(r.temperature, r.temp_rate, r.probability),
            r.fire_id, heading, r.detected)


def world_state(world, since=(0, 0), reading=reading_bits) -> dict:
    """What a tick may change, by fact: each UAV's position, velocity,
    flight command, mode and ``reading`` of its reading, by bits; each
    fire's axes and state; each record's swarm ids and tracks; the peak
    burning area; and the events and series rows from indices ``since``
    on.  The peak, events and rows go by repr, as in the golden digests,
    where a logged int 0 is not the float 0.0."""
    state = {}
    for u in world.uavs:
        state[f"uav {u.id}"] = (
            _pack4(*u.pos, *u.vel), u.waypoint and _pack4(*u.waypoint),
            u.mode, reading(u.reading))
    for f in world.fires:
        state[f"fire {f.id}"] = (_pack2(f.a, f.b), f.state)
    for fid, rec in sorted(world.records.items()):
        state[f"record {fid}"] = (rec.swarm_ids, [
            tuple(vars(t).values()) for t in rec.tracks])
    state["peak area"] = repr(world.peak_total_area)
    state["events"] = (len(world.events), repr(world.events[since[0]:]))
    state["series"] = (len(world.series), repr(world.series[since[1]:]))
    return state


def _shown(fact):
    """``fact`` with each packed run of doubles unpacked, for a message."""
    if isinstance(fact, bytes):
        return struct.unpack(f"<{len(fact) // 8}d", fact)
    if isinstance(fact, tuple):
        return tuple(map(_shown, fact))
    return fact


def step(world, twin, reading=reading_bits) -> None:
    """One tick of ``world`` and of ``twin``; fails with ``tick N: <key>``
    at the first fact of ``world_state`` in which they differ."""
    marks = [(len(w.events), len(w.series)) for w in (world, twin)]
    world.tick()
    twin.tick()
    got = world_state(world, marks[0], reading)
    want = world_state(twin, marks[1], reading)
    if got == want:
        return
    for key in {**got, **want}:
        assert got.get(key) == want.get(key), (
            f"tick {world.tick_index}: {key}\n"
            f"  world {_shown(got.get(key))!r}\n"
            f"  twin  {_shown(want.get(key))!r}")
