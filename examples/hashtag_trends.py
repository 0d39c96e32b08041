#!/usr/bin/env python
"""Hashtag trend statistics with the eventually dependent pattern (§III-A).

Tracks three campaign hashtags spreading epidemically over a social network,
buried in random background chatter, and uses Hashtag Aggregation — each
timestep counted independently, merged at the end — to compute per-hashtag
count series, totals, growth rates and peaks.

Run:  python examples/hashtag_trends.py
"""

from repro import (
    HashtagAggregationComputation,
    build_collection,
    partition_graph,
    smallworld_network,
    run_application,
)
from repro.generators import (
    BackgroundHashtagPopulator,
    CompositePopulator,
    SIRTweetPopulator,
)
from repro.analysis import render_bar_chart, render_table

SCALE = 4_000
INSTANCES = 30
CAMPAIGNS = {0: "#launch", 1: "#sale", 2: "#recall"}


def main() -> None:
    network = smallworld_network(SCALE, seed=23)
    sir = SIRTweetPopulator(
        network, list(CAMPAIGNS), hit_probability=0.12,
        num_timesteps=INSTANCES, seeds_per_meme=6, seed=23,
    )
    noise = BackgroundHashtagPopulator(list(range(100, 120)), rate=0.3, seed=24)
    tweets = build_collection(network, INSTANCES, CompositePopulator([sir, noise]), lazy=True)
    pg = partition_graph(network, 4)

    rows = []
    series = {}
    for tag, label in CAMPAIGNS.items():
        comp = HashtagAggregationComputation.for_partitioned_graph(pg, tag)
        result = run_application(comp, pg, tweets)
        (_master, summary), = result.merge_outputs
        series[label] = summary.counts
        growth = summary.rate_of_change
        rows.append(
            {
                "hashtag": label,
                "total": summary.total,
                "peak_t": summary.peak_timestep,
                "peak_count": int(summary.counts.max()),
                "max_growth/step": int(growth.max()) if len(growth) else 0,
                "merge_supersteps": result.metrics.merge_supersteps,
            }
        )

    print(f"network: {network.num_vertices} users; "
          f"{INSTANCES} timesteps; 20 background hashtags as noise\n")
    print(render_table(rows, title="campaign hashtag statistics"))
    busiest = max(series, key=lambda k: series[k].sum())
    print()
    print(render_bar_chart(
        series[busiest], [f"t={t:02d}" for t in range(INSTANCES)],
        width=40, title=f"count per timestep — {busiest}",
    ))


if __name__ == "__main__":
    main()
