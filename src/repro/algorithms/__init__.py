"""Time-series graph algorithms (paper Section III) and single-graph baselines.

The paper's three algorithms:

* :class:`~repro.algorithms.hashtag.HashtagAggregationComputation` —
  eventually dependent;
* :class:`~repro.algorithms.meme.MemeTrackingComputation` — sequentially
  dependent temporal BFS;
* :class:`~repro.algorithms.tdsp.TDSPComputation` — sequentially dependent
  time-dependent shortest path.

Plus subgraph-centric single-graph algorithms (SSSP/BFS/WCC/PageRank), the
independent-pattern Top-N example, and centralized reference
implementations used as correctness anchors.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".evolution": (
        "CommunityEvolutionComputation", "CommunityEvolutionSummary", "community_events",
    ),
    ".reachability": (
        "ReachedFrontier", "TemporalReachabilityComputation", "reached_timesteps_from_result",
    ),
    ".hashtag": (
        "HashtagAggregationComputation", "HashtagSummary", "largest_subgraph_in_partition",
    ),
    ".meme": ("MemeFrontier", "MemeTrackingComputation", "colored_timesteps_from_result"),
    ".pagerank": ("PageRankComputation", "PageRankResult", "pagerank_from_result"),
    ".sssp": ("BFSComputation", "SSSPComputation", "SSSPResult", "sssp_labels_from_result"),
    ".tdsp": ("TDSPComputation", "TDSPFrontier", "tdsp_labels_from_result"),
    ".statistics": (
        "AttributeStats", "InstanceStatisticsComputation", "stats_series_from_result",
    ),
    ".top_n": ("TopNComputation", "TopNResult"),
    ".wcc": ("WCCComputation", "WCCResult", "wcc_labels_from_result"),
    ".": ("reference",),
})
