"""Seeded random-number streams for reproducible runs.

One master seed; each run derives its own SeedSequence from
(base_seed, run_index), and each agent gets an independent child stream.
Distinct (run, agent) pairs are statistically independent by spawn-key
construction, and identical pairs replay identical draw sequences.  Because
the run seed never depends on the strategy, paired-seed comparisons across
strategies see identical world layouts.
"""

from __future__ import annotations

import numpy as np

# Stream index 0 is reserved for world initialisation (fire-independent
# swarm/UAV placement); agent k uses index k + 1.
_WORLD_STREAM = 0


def run_seed_sequence(base_seed: int, run_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))


class RngStreams:
    """All random streams for one run, derived from (base_seed, run_index)."""

    def __init__(self, base_seed: int, run_index: int, n_agents: int):
        root = run_seed_sequence(base_seed, run_index)
        children = root.spawn(n_agents + 1)
        self.world = np.random.Generator(np.random.Philox(children[_WORLD_STREAM]))
        self.agents = [np.random.Generator(np.random.Philox(c))
                       for c in children[1:]]

    def agent(self, agent_index: int) -> np.random.Generator:
        return self.agents[agent_index]


def uniform(gen: np.random.Generator, low: float, high: float) -> float:
    """The double ``gen.uniform(low, high)`` returns, by the formula NumPy
    uses (``low + (high - low) * next_double``), without that method's
    per-call argument handling, which costs about twice the draw itself."""
    return low + (high - low) * gen.random()
