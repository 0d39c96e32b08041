"""Ingest acceptance suite: determinism + the distributions the paper needs.

* **Determinism** — generators and partitioner are bit-identical run-to-run
  and process-to-process for a pinned seed (golden hashes below), and cache
  cold vs warm builds agree exactly;
* **Distributions** — the BA edge count, a power-law degree tail (Hill
  estimator), connectivity, a sustained epidemic, and the Table 2 edge-cut
  behaviour (near-zero CARN cuts, k-increasing WIKI cuts) at the 20 k bench
  scale.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro.generators.hashtags import BackgroundHashtagPopulator
from repro.generators.road import road_network
from repro.generators.sir import SIRTweetPopulator, simulate_sir, tweet_collection
from repro.generators.smallworld import preferential_attachment_edges, smallworld_network
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.stats import edge_cut_fraction


def _digest(*arrays: np.ndarray) -> str:
    d = hashlib.sha256()
    for a in arrays:
        d.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return d.hexdigest()[:16]


# Pinned-seed golden hashes (seed 7, small scale).
# A change here means the ingest algorithms' output changed: a GoFS store
# written before it still holds the old output, and `tibsp run --gofs` opens a
# store as written, generating nothing, so say in the same commit that stores
# need rewriting.
GOLDEN_WIKI_EDGES = "d7a71a61b830ed14"
GOLDEN_SIR = "bdd10ac781183fcf"
GOLDEN_CARN_ASSIGN = "73efc81b1b9ced56"
GOLDEN_WIKI_ASSIGN = "76015c76a7a9daa0"
# Every instance's (offsets, values) of the tweet workload with background
# chatter: pinned from the object-column generators, whose cells flattened
# to the same arrays — memes in list order, then the background draws.  The
# column is (owner, value) pairs now; the offsets are counted from its owners.
GOLDEN_TWEETS = "1c2f854ea3e46890"

_GOLDEN_SNIPPET = """
import hashlib, numpy as np
from repro.generators.smallworld import smallworld_network
from repro.partition.metis_like import MetisLikePartitioner

def digest(*arrays):
    d = hashlib.sha256()
    for a in arrays:
        d.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return d.hexdigest()[:16]

wiki = smallworld_network(5000, seed=7)
assignment = MetisLikePartitioner(seed=7).assign(wiki, 4)
print(digest(wiki.edge_src, wiki.edge_dst), digest(assignment))
"""


def _hill_tail_exponent(degrees: np.ndarray, k: int = 500) -> float:
    """Hill estimator of the degree-distribution tail exponent."""
    tail = np.sort(degrees[degrees > 0])[-k:]
    return 1.0 + 1.0 / float(np.mean(np.log(tail / tail[0])))


class TestGoldenDeterminism:
    def test_wiki_edges_golden(self):
        wiki = smallworld_network(5000, seed=7)
        assert _digest(wiki.edge_src, wiki.edge_dst) == GOLDEN_WIKI_EDGES

    def test_sir_golden(self):
        wiki = smallworld_network(5000, seed=7)
        rng = np.random.default_rng(7)
        inf, rec = simulate_sir(
            wiki,
            hit_probability=0.2,
            num_timesteps=30,
            seeds=rng.choice(5000, size=10, replace=False),
            infectious_period=3,
            rng=rng,
        )
        assert _digest(inf, rec) == GOLDEN_SIR

    def test_tweet_column_golden(self):
        wiki = smallworld_network(2000, seed=7)
        tweets = tweet_collection(wiki, 12, hit_probability=0.2, seeds_per_meme=10, seed=7)
        noise = BackgroundHashtagPopulator(list(range(100, 110)), rate=0.3, seed=7)
        arrays = []
        for t in range(12):
            inst = tweets.instance(t)
            noise(inst, t)
            column = inst.vertex_column("tweets")
            offsets = np.concatenate([[0], np.bincount(column.owners, minlength=column.n).cumsum()])
            arrays.extend((offsets, column.values))
        assert sum(len(values) for values in arrays[1::2]) == 9126
        assert _digest(*arrays) == GOLDEN_TWEETS

    def test_partitioner_golden(self):
        carn = road_network(5000, seed=7)
        wiki = smallworld_network(5000, seed=7)
        assert _digest(MetisLikePartitioner(seed=7).assign(carn, 4)) == GOLDEN_CARN_ASSIGN
        assert _digest(MetisLikePartitioner(seed=7).assign(wiki, 4)) == GOLDEN_WIKI_ASSIGN

    def test_golden_across_processes(self):
        """A fresh interpreter reproduces the same hashes (no per-process
        state — hash randomization, import order — leaks into the output)."""
        out = subprocess.run(
            [sys.executable, "-c", _GOLDEN_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
        )
        edges_hash, assign_hash = out.stdout.split()
        assert edges_hash == GOLDEN_WIKI_EDGES
        assert assign_hash == GOLDEN_WIKI_ASSIGN

    def test_repeat_identical(self):
        a = smallworld_network(3000, seed=3)
        b = smallworld_network(3000, seed=3)
        assert a.equals(b)


class TestDistributionEquivalence:
    SCALE = 20_000

    @pytest.fixture(scope="class")
    def wiki(self):
        return smallworld_network(self.SCALE, seed=1)

    def test_edge_counts_match(self, wiki):
        # BA: an (m+1)-clique, then m edges per further vertex — exactly.
        src, _ = preferential_attachment_edges(1000, 2, np.random.default_rng(0))
        assert len(src) == 3 + (1000 - 3) * 2
        # Directed WIKI adds a Binomial(|E|, 0.25) of reciprocal twins.
        base = 3 + (self.SCALE - 3) * 2
        assert abs(len(wiki.edge_src) - 1.25 * base) < 0.02 * 1.25 * base

    def test_degree_tail_exponent(self, wiki):
        degrees = np.bincount(
            np.concatenate([wiki.edge_src, wiki.edge_dst]), minlength=wiki.num_vertices
        )
        assert 2.0 < _hill_tail_exponent(degrees) < 4.0  # BA tail exponent ~3

    def test_connectivity(self, wiki):
        from repro.partition.subgraphs import subgraph_labels

        num_sg, _ = subgraph_labels(wiki, np.zeros(wiki.num_vertices, dtype=np.int64))
        assert num_sg == 1  # BA attachment keeps the graph connected

    def test_sir_epidemic_size(self):
        tpl = road_network(self.SCALE, seed=1)
        rng = np.random.default_rng(5)
        seeds = rng.choice(tpl.num_vertices, size=20, replace=False)
        inf, _rec = simulate_sir(
            tpl,
            hit_probability=0.5,
            num_timesteps=50,
            seeds=seeds,
            infectious_period=3,
            rng=rng,
        )
        assert int((inf != -1).sum()) > 0.05 * tpl.num_vertices

    def test_sir_populator_tweets_match_schedule(self):
        tpl = smallworld_network(2000, seed=2)
        pop = SIRTweetPopulator(tpl, [0, 1], hit_probability=0.2, num_timesteps=10, seed=2)
        from repro.graph import build_collection

        coll = build_collection(tpl, 10, pop, delta=5.0, lazy=True)
        inst = coll.instance(4)
        tweets = inst.vertex_values.column("tweets")
        for i, meme in enumerate([0, 1]):
            active = pop.active_mask(i, 4)
            tweeting = np.fromiter(
                (meme in tweets.row(v) for v in range(tpl.num_vertices)), dtype=bool
            )
            assert np.array_equal(active, tweeting)


class TestTable2CutDirection:
    """Table 2's qualitative behaviour."""

    SCALE = 20_000

    def test_cut_direction(self):
        carn = road_network(self.SCALE, seed=0)
        wiki = smallworld_network(self.SCALE, seed=0)
        cuts = {}
        for tpl in (carn, wiki):
            for k in (3, 9):
                p = MetisLikePartitioner(seed=0)
                cuts[tpl.name, k] = edge_cut_fraction(tpl, p.assign(tpl, k))
        # Road network: near-zero cuts at every k (Table 2: 0.0–0.2 %).
        assert cuts["CARN", 3] < 0.02
        assert cuts["CARN", 9] < 0.03
        # Small-world: large cuts, growing with partition count.
        assert cuts["WIKI", 3] > 0.10
        assert cuts["WIKI", 9] > cuts["WIKI", 3]
