"""Auxiliary populator: background hashtags.

:class:`BackgroundHashtagPopulator` appends random, non-propagating hashtags
to the ``tweets`` column (ambient chatter on top of the SIR memes) — useful
for making Hashtag Aggregation's counting non-trivial and for negative
tests (a tracked meme must not be confused with noise).
"""

from __future__ import annotations

import numpy as np

from ..graph.attributes import Ragged
from ..graph.instance import GraphInstance

__all__ = ["BackgroundHashtagPopulator"]


class BackgroundHashtagPopulator:
    """Append i.i.d. random hashtags to each vertex's tweets.

    Must run *after* a populator that sets the ragged tweets column (compose
    with :class:`~repro.generators.populate.CompositePopulator`); treats a
    missing column as all-empty.  Each row keeps its memes first, then its
    draws.

    Parameters
    ----------
    hashtags:
        Pool of background hashtag ids (keep disjoint from tracked memes).
    rate:
        Expected number of background hashtags per vertex per instance.
    """

    def __init__(self, hashtags: list[int], *, rate: float = 0.2, seed: int = 0, attr: str = "tweets") -> None:
        if not hashtags:
            raise ValueError("need at least one background hashtag")
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.hashtags = np.asarray(hashtags, dtype=np.int64)
        self.rate = float(rate)
        self.seed = int(seed)
        self.attr = attr

    def __call__(self, instance: GraphInstance, timestep: int) -> None:
        rng = np.random.default_rng(self.seed + timestep)
        n = instance.template.num_vertices
        tweets = instance.vertex_values.column(self.attr)
        counts = rng.poisson(self.rate, n)
        chatty = np.nonzero(counts)[0]
        if not len(chatty):
            return
        # One batched draw for every background hashtag (i.i.d. with
        # replacement, like the per-vertex draws), each row's after its memes.
        chatty_counts = counts[chatty]
        draws = self.hashtags[rng.integers(len(self.hashtags), size=int(chatty_counts.sum()))]
        owners = np.concatenate([tweets.owners, chatty.repeat(chatty_counts)])
        instance.vertex_values.set_column(
            self.attr, Ragged.group(owners, np.concatenate([tweets.values, draws]), n)
        )

