"""The paper's four dataset configurations (Section IV-A), at a chosen scale."""

from __future__ import annotations

from .latency import road_latency_collection
from .road import road_network
from .sir import tweet_collection
from .smallworld import smallworld_network

__all__ = ["GRAPHS", "paper_dataset", "paper_datasets"]

#: Each graph's template generator and the SIR hit probability of its tweet
#: collection.  The paper used 30 % (CARN) / 2 % (WIKI), *chosen to get
#: stable propagation across 50 timesteps* on multi-million-vertex graphs.  At
#: our default 20 k-vertex scale those values die out, so these are re-tuned
#: by the same criterion — see EXPERIMENTS.md (and docs/scaling.md for the
#: 400 k+ regime).
GRAPHS = {"CARN": (road_network, 0.5), "WIKI": (smallworld_network, 0.1)}


def _collection(template, kind: str, num_instances: int, seed: int, delta: float, hit: float):
    if kind == "road":
        return road_latency_collection(template, num_instances, delta=delta, seed=seed)
    # seeds_per_meme=20 spreads the epidemic across all partitions at bench
    # scale (Fig 7c needs every partition to see colorings, as the paper's
    # 2.4M-vertex WIKI did with few seeds).
    return tweet_collection(
        template, num_instances, hit_probability=hit, seeds_per_meme=20, delta=delta, seed=seed
    )


def paper_dataset(
    graph: str, kind: str, scale: int = 20_000, num_instances: int = 50, *,
    seed: int = 0, delta: float = 5.0,
) -> tuple:
    """One configuration, built alone, as ``(template, collection)``:
    ``graph`` is ``"CARN"`` or ``"WIKI"``, ``kind`` ``"road"`` (latencies, for
    TDSP) or ``"tweets"`` (SIR, for MEME/HASH)."""
    generate, hit = GRAPHS[graph]
    template = generate(scale, seed=seed)
    return template, _collection(template, kind, num_instances, seed, delta, hit)


def paper_datasets(
    scale: int = 20_000, num_instances: int = 50, *, seed: int = 0, delta: float = 5.0,
    carn_hit_probability: float = GRAPHS["CARN"][1],
    wiki_hit_probability: float = GRAPHS["WIKI"][1],
) -> dict[str, dict[str, object]]:
    """Build the paper's four dataset configurations at a given scale.

    Returns ``{"CARN": {...}, "WIKI": {...}}``, each with keys ``template``,
    ``road`` (latency collection for TDSP) and ``tweets`` (SIR collection
    for MEME/HASH) — mirroring Section IV-A's "four graph datasets (CARN and
    WIKI using Road and Tweet Generators)".
    """
    hits = {"CARN": carn_hit_probability, "WIKI": wiki_hit_probability}
    out: dict[str, dict[str, object]] = {}
    for graph, (generate, _) in GRAPHS.items():
        tpl = generate(scale, seed=seed)
        out[graph] = {"template": tpl} | {
            kind: _collection(tpl, kind, num_instances, seed, delta, hits[graph])
            for kind in ("road", "tweets")
        }
    return out
