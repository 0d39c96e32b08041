"""Workload generators (paper Section IV-A substitutes).

Templates: :func:`~repro.generators.road.road_network` (CARN-like) and
:func:`~repro.generators.smallworld.smallworld_network` (WIKI-like).
Instance data: :mod:`~repro.generators.latency` (TDSP road latencies),
:mod:`~repro.generators.sir` (SIR meme tweets), plus the background-hashtag
populator.  Everything is seeded and lazily regenerable (picklable), so
process-cluster workers synthesize their instances locally.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".evolving": ("PeriodicExistencePopulator",),
    ".hashtags": ("BackgroundHashtagPopulator",),
    ".latency": ("UniformLatencyPopulator", "road_latency_collection"),
    ".populate": ("CompositePopulator",),
    ".road": ("grid_dimensions", "road_network"),
    ".sir": ("SIRTweetPopulator", "simulate_sir", "tweet_collection"),
    ".smallworld": ("preferential_attachment_edges", "smallworld_network"),
    ".snap": ("load_snap_edgelist",),
    ".datasets": ("paper_dataset", "paper_datasets"),
})
