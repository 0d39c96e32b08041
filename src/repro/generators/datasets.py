"""The paper's four dataset configurations (Section IV-A), at a chosen scale."""

from __future__ import annotations

from .latency import road_latency_collection
from .road import road_network
from .sir import tweet_collection
from .smallworld import smallworld_network

__all__ = ["paper_datasets"]


def paper_datasets(
    scale: int = 20_000,
    num_instances: int = 50,
    *,
    seed: int = 0,
    delta: float = 5.0,
    carn_hit_probability: float = 0.5,
    wiki_hit_probability: float = 0.1,
) -> dict[str, dict[str, object]]:
    """Build the paper's four dataset configurations at a given scale.

    Returns ``{"CARN": {...}, "WIKI": {...}}``, each with keys ``template``,
    ``road`` (latency collection for TDSP) and ``tweets`` (SIR collection
    for MEME/HASH) — mirroring Section IV-A's "four graph datasets (CARN and
    WIKI using Road and Tweet Generators)".

    The paper used hit probabilities of 30 % (CARN) / 2 % (WIKI), *chosen to
    get stable propagation across 50 timesteps* on multi-million-vertex
    graphs.  At our default 20 k-vertex scale those values die out, so the
    defaults here (50 % / 10 %) are re-tuned by the same criterion — see
    EXPERIMENTS.md (and docs/scaling.md for the 400 k+ regime).
    """
    out: dict[str, dict[str, object]] = {}
    carn = road_network(scale, seed=seed)
    wiki = smallworld_network(scale, seed=seed)
    for tpl, hit in ((carn, carn_hit_probability), (wiki, wiki_hit_probability)):
        out[tpl.name] = {
            "template": tpl,
            "road": road_latency_collection(tpl, num_instances, delta=delta, seed=seed),
            # seeds_per_meme=20 spreads the epidemic across all partitions at
            # bench scale (Fig 7c needs every partition to see colorings, as
            # the paper's 2.4M-vertex WIKI did with few seeds).
            "tweets": tweet_collection(
                tpl,
                num_instances,
                hit_probability=hit,
                seeds_per_meme=20,
                delta=delta,
                seed=seed,
            ),
        }
    return out
