"""Tweet data generator: SIR epidemic propagation of memes (Section IV-A).

    "We use the SIR model of epidemiology for generating tweets containing
    memes (#hashtags) for each edge of the graph.  Memes in the tweets
    propagate from vertices across instances with a hit probability of 30 %
    for CARN and 2 % for WIKI."

Each meme spreads as an independent Susceptible → Infected → Recovered
process on the template: at every timestep an infected vertex infects each
susceptible neighbor with probability ``hit_probability``, and recovers
after ``infectious_period`` timesteps.  While infected, a vertex *tweets*
the meme — so the ``tweets`` vertex attribute of instance ``t`` contains the
memes the vertex carries during ``[t, t+1)``.

The full epidemic schedule is simulated once at construction (arrays of
infection/recovery timesteps per meme), so instance population is a cheap,
deterministic lookup — lazily regenerable on any host or process.

The simulation is **frontier-at-once**: each timestep gathers every
infectious vertex's out-adjacency slots in one fancy-index over the
template CSR, draws all infection trials in a single ``rng.random``, and
commits the newly infected set with one ``unique``.  A vertex is infected
at ``t`` iff at least one of its infectious in-neighbors' independent
trials succeeds — the per-edge Bernoulli process of the SIR model.
"""

from __future__ import annotations

import numpy as np

from ..graph.attributes import Ragged
from ..graph.collection import TimeSeriesGraphCollection, build_collection
from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate

__all__ = ["SIRTweetPopulator", "simulate_sir", "tweet_collection"]


def simulate_sir(
    template: GraphTemplate,
    *,
    hit_probability: float,
    num_timesteps: int,
    seeds: np.ndarray,
    infectious_period: int = 3,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one meme's SIR epidemic.

    Returns ``(infected_at, recovered_at)`` arrays: vertex ``v`` is
    infectious (tweets the meme) during ``infected_at[v] ≤ t <
    recovered_at[v]``; never-infected vertices have ``infected_at = -1``.
    Propagation follows out-edges (a tweet reaches the poster's audience).
    """
    if not 0.0 <= hit_probability <= 1.0:
        raise ValueError("hit_probability must be in [0, 1]")
    n = template.num_vertices
    indptr, indices, _edges = template.adjacency
    infected_at = np.full(n, -1, dtype=np.int64)
    recovered_at = np.full(n, -1, dtype=np.int64)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    infected_at[seeds] = 0
    recovered_at[seeds] = infectious_period
    frontier = seeds
    for t in range(1, num_timesteps):
        # Vertices infectious during [t-1, t): infected and not yet recovered.
        frontier = frontier[recovered_at[frontier] > t - 1]
        if not len(frontier):
            break
        # All out-adjacency slots of the frontier, in one gather.
        starts, stops = indptr[frontier], indptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total:
            slots = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(
                total, dtype=np.int64
            )
            targets = indices[slots]
            # One Bernoulli trial per (infectious vertex, out-edge) pair; a
            # susceptible vertex is infected iff at least one trial on an
            # in-slot hits.
            hits = targets[rng.random(total) < hit_probability]
            fresh = np.unique(hits[infected_at[hits] == -1])
            if len(fresh):
                infected_at[fresh] = t
                recovered_at[fresh] = t + infectious_period
                frontier = np.concatenate([frontier, fresh])
    return infected_at, recovered_at


class SIRTweetPopulator:
    """Fill the ``tweets`` vertex column from precomputed SIR schedules.

    Parameters
    ----------
    template:
        The graph template the epidemics run on.
    memes:
        Meme identifiers (ints keep payloads compact).
    hit_probability:
        Per-edge, per-timestep infection probability (the paper's 30 % /
        2 % knob).
    num_timesteps:
        Horizon of the simulated schedules.
    seeds_per_meme:
        Number of initially infected vertices per meme.
    infectious_period:
        Timesteps a vertex stays infectious (and keeps tweeting the meme).
    seed:
        RNG seed for seeds and propagation.
    """

    def __init__(
        self,
        template: GraphTemplate,
        memes: list[int],
        *,
        hit_probability: float = 0.1,
        num_timesteps: int = 50,
        seeds_per_meme: int = 5,
        infectious_period: int = 3,
        seed: int = 0,
        attr: str = "tweets",
    ) -> None:
        self.memes = list(memes)
        self.attr = attr
        self.num_timesteps = int(num_timesteps)
        rng = np.random.default_rng(seed)
        n = template.num_vertices
        self.infected_at = np.empty((len(memes), n), dtype=np.int64)
        self.recovered_at = np.empty((len(memes), n), dtype=np.int64)
        for i in range(len(memes)):
            seeds = rng.choice(n, size=min(seeds_per_meme, n), replace=False)
            inf, rec = simulate_sir(
                template,
                hit_probability=hit_probability,
                num_timesteps=num_timesteps,
                seeds=seeds,
                infectious_period=infectious_period,
                rng=rng,
            )
            self.infected_at[i] = inf
            self.recovered_at[i] = rec

    def active_mask(self, meme_index: int | slice, timestep: int) -> np.ndarray:
        """Vertices tweeting meme ``meme_index`` at ``timestep`` (a slice of
        the memes: one row per meme)."""
        inf = self.infected_at[meme_index]
        rec = self.recovered_at[meme_index]
        return (inf != -1) & (inf <= timestep) & (timestep < rec)

    def __call__(self, instance: GraphInstance, timestep: int) -> None:
        # Every active (meme, vertex) pair, meme-major; grouped by vertex, a
        # row holds its memes in list order.
        rows, vertices = self.active_mask(slice(None), timestep).nonzero()
        memes = np.asarray(self.memes, dtype=np.int64)[rows]
        cells = Ragged.group(vertices, memes, instance.template.num_vertices)
        instance.vertex_values.set_column(self.attr, cells)


def tweet_collection(
    template: GraphTemplate,
    num_instances: int = 50,
    *,
    memes: list[int] | None = None,
    hit_probability: float = 0.1,
    seeds_per_meme: int = 5,
    infectious_period: int = 3,
    delta: float = 5.0,
    seed: int = 0,
) -> TimeSeriesGraphCollection:
    """The paper's tweet workload for Meme Tracking and Hashtag Aggregation."""
    populator = SIRTweetPopulator(
        template,
        memes if memes is not None else [0, 1, 2],
        hit_probability=hit_probability,
        num_timesteps=num_instances,
        seeds_per_meme=seeds_per_meme,
        infectious_period=infectious_period,
        seed=seed,
    )
    return build_collection(template, num_instances, populator, delta=delta, lazy=True)
