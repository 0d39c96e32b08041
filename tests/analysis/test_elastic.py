"""Tests for elastic VM scaling analysis (Section IV-D suggestion)."""

import numpy as np
import pytest

from repro.core import AppResult
from repro.analysis import ElasticPolicy, activity_grid, simulate_elastic
from repro.runtime.metrics import PHASE_COMPUTE, MetricsCollector, StepRecord


def make_result(compute_grid: np.ndarray) -> AppResult:
    """Synthesize an AppResult whose per-(timestep, partition) compute is given."""
    T, P = compute_grid.shape
    m = MetricsCollector(P)
    for t in range(T):
        for p in range(P):
            m.fold(
                StepRecord(
                    PHASE_COMPUTE, t, 0, p, float(compute_grid[t, p]), 0.0, 1, 0, 0
                )
            )
    return AppResult(metrics=m, timesteps_executed=T)


class TestActivityGrid:
    def test_thresholding(self):
        compute = np.array(
            [
                [1.0, 0.001, 0.5],  # partition 1 negligible vs peak 1.0
                [0.0, 2.0, 2.0],
            ]
        )
        res = make_result(compute)
        grid = activity_grid(res, rel_threshold=0.05)
        assert grid.tolist() == [[True, False, True], [False, True, True]]

    def test_all_zero_timestep(self):
        res = make_result(np.zeros((2, 2)))
        grid = activity_grid(res)
        assert not grid.any()

    def test_invalid_threshold(self):
        res = make_result(np.ones((1, 1)))
        with pytest.raises(ValueError):
            activity_grid(res, rel_threshold=2.0)

    def test_no_metrics(self):
        with pytest.raises(ValueError):
            activity_grid(AppResult())


class TestPolicyValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            ElasticPolicy(idle_timesteps=0)
        with pytest.raises(ValueError):
            ElasticPolicy(spinup_penalty_s=-1)
        with pytest.raises(ValueError):
            ElasticPolicy(prefetch=-1)


class TestSimulateElastic:
    def wave_grid(self):
        """Partition 0 active t=0..3; partition 1 active t=6..9 (a wave)."""
        compute = np.zeros((10, 2))
        compute[0:4, 0] = 1.0
        compute[6:10, 1] = 1.0
        return compute

    def test_on_demand_start(self):
        res = make_result(self.wave_grid())
        out = simulate_elastic(res, ElasticPolicy(idle_timesteps=2, prefetch=1))
        # Partition 1 is powered from t=5 (prefetch 1 before first use at 6).
        assert not out.powered[0:5, 1].any()
        assert out.powered[5:10, 1].all()
        assert out.spinups >= 1

    def test_spin_down_after_idle(self):
        res = make_result(self.wave_grid())
        out = simulate_elastic(res, ElasticPolicy(idle_timesteps=2, prefetch=0))
        # Partition 0 idles from t=4; off from t=4+2=6 (t=4,5 still billed).
        assert out.powered[4:6, 0].all()
        assert not out.powered[6:10, 0].any()

    def test_never_off_while_active(self):
        rng = np.random.default_rng(0)
        compute = rng.random((20, 4)) * (rng.random((20, 4)) > 0.5)
        res = make_result(compute)
        grid = activity_grid(res)
        for policy in (ElasticPolicy(1, 10.0, 0), ElasticPolicy(3, 10.0, 2)):
            out = simulate_elastic(res, policy)
            assert out.powered[grid].all()

    def test_billing_math(self):
        res = make_result(self.wave_grid())
        out = simulate_elastic(res, ElasticPolicy(idle_timesteps=2, prefetch=1))
        assert out.vm_timesteps_static == 20
        assert out.vm_timesteps_elastic == int(out.powered.sum())
        assert out.savings_fraction == pytest.approx(
            1 - out.vm_timesteps_elastic / 20
        )
        # Partition 0 cold-boots at t=0 (free vs the static baseline);
        # partition 1's delayed first boot at t=5 pays the penalty.
        assert out.spinups == 2
        assert out.added_wall_s == pytest.approx(30.0)

    def test_never_touched_partition_never_boots(self):
        compute = np.zeros((5, 2))
        compute[:, 0] = 1.0
        res = make_result(compute)
        out = simulate_elastic(res)
        assert not out.powered[:, 1].any()
        assert out.savings_fraction == pytest.approx(0.5)

    def test_wave_saves_more_than_uniform(self):
        wave = make_result(self.wave_grid())
        uniform = make_result(np.ones((10, 2)))
        policy = ElasticPolicy(idle_timesteps=2)
        assert (
            simulate_elastic(wave, policy).savings_fraction
            > simulate_elastic(uniform, policy).savings_fraction
        )

    def test_cold_boot_at_t0_counts_as_spinup(self):
        """Regression: a partition first active at t=0 boots with zero lead,
        but the boot is still a spin-up — the tracer logs it as vm_spinup
        and the counter must agree.  It adds no wall, though: the static
        always-on baseline pays the same initial boot."""
        compute = np.ones((4, 2))
        res = make_result(compute)
        out = simulate_elastic(res, ElasticPolicy(idle_timesteps=2, prefetch=1))
        assert out.spinups == 2  # both partitions cold-boot at t=0
        assert out.added_wall_s == 0.0

    def test_added_wall_excludes_t0_boots_but_charges_wakeups(self):
        """added_wall_s is latency added *vs static*: a t=0 cold boot is
        free (static boots then too), while a delayed first boot and every
        mid-run wake-up pay the penalty."""
        compute = np.zeros((12, 2))
        compute[0:2, 0] = 1.0   # partition 0: boots at t=0 ...
        compute[8:10, 0] = 1.0  # ... idles, wakes again at t=8
        compute[5:7, 1] = 1.0   # partition 1: first boot mid-run
        res = make_result(compute)
        policy = ElasticPolicy(idle_timesteps=2, prefetch=1, spinup_penalty_s=30.0)
        out = simulate_elastic(res, policy)
        assert out.spinups == 3
        assert out.added_wall_s == pytest.approx(2 * 30.0)

    def test_spinups_match_traced_vm_spinup_events(self):
        class StubTracer:
            def __init__(self):
                self.events = []

            def event(self, kind, **fields):
                self.events.append((kind, fields))

        gap = np.zeros((10, 1))  # idle stretch: spin down, then wake again
        gap[0:2, 0] = 1.0
        gap[7:9, 0] = 1.0
        for grid in (self.wave_grid(), np.ones((4, 2)), gap):
            res = make_result(grid)
            for policy in (
                ElasticPolicy(idle_timesteps=2, prefetch=1),
                ElasticPolicy(idle_timesteps=1, prefetch=0),
            ):
                tracer = StubTracer()
                out = simulate_elastic(res, policy, tracer=tracer)
                booted = sum(
                    1 for kind, _f in tracer.events if kind == "vm_spinup"
                )
                t0_boots = sum(
                    1
                    for kind, f in tracer.events
                    if kind == "vm_spinup" and f["timestep"] == 0
                )
                assert out.spinups == booted
                assert out.added_wall_s == pytest.approx(
                    (out.spinups - t0_boots) * policy.spinup_penalty_s
                )

    def test_end_to_end_tdsp(self):
        """Real TDSP run: wave leaves pre-arrival windows to harvest."""
        from repro.algorithms import TDSPComputation
        from repro.core import run_application
        from repro.generators import road_latency_collection, road_network
        from repro.partition import partition_graph

        tpl = road_network(2500, seed=2)
        coll = road_latency_collection(tpl, 30, seed=2)
        pg = partition_graph(tpl, 5)
        res = run_application(
            TDSPComputation(0, halt_when_stalled=True, root_pruning=False), pg, coll
        )
        out = simulate_elastic(res, ElasticPolicy(idle_timesteps=2))
        assert 0.0 <= out.savings_fraction < 1.0
        assert out.powered[activity_grid(res)].all()
