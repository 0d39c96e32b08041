"""Unit tests for the fault plan and its CLI mini-language."""

import pickle

import pytest

from repro.resilience import (
    AT_EOT,
    FaultPlan,
    FaultSpec,
    parse_fault_specs,
)


class TestParse:
    def test_full_grammar(self):
        specs = parse_fault_specs(
            "kill@t1:s0:p0, delay@t2:p1:d0.2; fail_load@t3:s0:p0:i1,corrupt_frame@t1:eot:p2"
        )
        assert specs == [
            FaultSpec("kill", 1, 0, superstep=0),
            FaultSpec("delay", 2, 1, delay_s=0.2),
            FaultSpec("fail_load", 3, 0, superstep=0, incarnation=1),
            FaultSpec("corrupt_frame", 1, 2, superstep=AT_EOT),
        ]

    def test_superstep_optional(self):
        (spec,) = parse_fault_specs("drop_frame@t4:p2")
        assert spec.superstep is None
        assert spec.matches(4, 0, 2, 0) and spec.matches(4, 17, 2, 0)

    @pytest.mark.parametrize(
        "bad",
        ["", "kill", "kill@p0", "kill@t1", "zap@t1:p0", "kill@t1:x9:p0"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_specs(bad)

    def test_fail_load_names_superstep_0(self):
        """A failed load is the instance load superstep 0 opens: with or
        without ``:s0`` the spec fires there and nowhere else."""
        for text in ("fail_load@t2:p0", "fail_load@t2:s0:p0"):
            (spec,) = parse_fault_specs(text)
            assert spec.superstep == 0
            assert spec.matches(2, 0, 0, 0) and not spec.matches(2, 1, 0, 0)

    @pytest.mark.parametrize("coordinate", ["s1", "eot"])
    def test_fail_load_refuses_another_call(self, coordinate):
        with pytest.raises(ValueError, match="superstep 0 opens"):
            parse_fault_specs(f"fail_load@t2:{coordinate}:p1")
        with pytest.raises(ValueError, match="superstep 0 opens"):
            FaultSpec("fail_load", 2, 1, superstep=AT_EOT)

    def test_the_begin_token_names_s0(self):
        """A timestep opens at superstep 0: there is no begin call to name."""
        with pytest.raises(ValueError, match="write s0"):
            parse_fault_specs("kill@t2:begin:p1")


class TestOneSpecPerCall:
    """Two specs naming one exact call: the second could never fire, so the
    plan is refused when it is built."""

    @pytest.mark.parametrize(
        "text",
        [
            "delay@t1:s0:p0:d0.01,kill@t1:s0:p0",
            "kill@t2:s0:p1,fail_load@t2:p1",
            "drop_frame@t3:eot:p0,dup_frame@t3:eot:p0",
        ],
    )
    def test_same_call_refused(self, text):
        with pytest.raises(ValueError, match="name the same call"):
            FaultPlan.parse(text)

    @pytest.mark.parametrize(
        "text",
        [
            "kill@t1:s0:p0,kill@t1:s0:p0:i1",  # another incarnation
            "kill@t1:s0:p0,kill@t1:s0:p1",  # another partition
            "kill@t1:s0:p0,delay@t1:s1:p0",  # another superstep
            "kill@t1:p0,drop_frame@t1:p0",  # any call: the next one
        ],
    )
    def test_distinct_calls_accepted(self, text):
        assert len(FaultPlan.parse(text).specs) == 2


class TestFire:
    def test_spec_fires_once(self):
        plan = FaultPlan([FaultSpec("kill", 1, 0, superstep=0)])
        assert plan.fire(1, 0, 0, 0) is not None
        assert plan.fire(1, 0, 0, 0) is None

    def test_incarnation_guard(self):
        plan = FaultPlan([FaultSpec("kill", 1, 0)])
        assert plan.fire(1, 0, 0, incarnation=1) is None
        assert plan.fire(1, 0, 0, incarnation=0) is not None

    def test_first_armed_spec_in_plan_order_fires(self):
        plan = FaultPlan([FaultSpec("delay", 1, 0), FaultSpec("kill", 1, 0)])
        assert plan.fire(1, 0, 0, 0).kind == "delay"
        assert plan.fire(1, 1, 0, 0).kind == "kill"

    def test_pickle_resets_spent(self):
        plan = FaultPlan([FaultSpec("kill", 1, 0)])
        assert plan.fire(1, 0, 0, 0) is not None
        fresh = pickle.loads(pickle.dumps(plan))
        assert fresh.fire(1, 0, 0, 0) is not None

    def test_bool(self):
        assert not FaultPlan()
        assert FaultPlan([FaultSpec("kill", 0, 0)])


class TestDelay:
    def test_explicit_delay_honored(self):
        plan = FaultPlan([FaultSpec("delay", 1, 0, delay_s=0.25)])
        assert plan.delay_for(plan.specs[0]) == 0.25

    def test_derived_delay_deterministic(self):
        a = FaultPlan([FaultSpec("delay", 1, 0)], seed=7)
        b = FaultPlan([FaultSpec("delay", 1, 0)], seed=7)
        c = FaultPlan([FaultSpec("delay", 1, 0)], seed=8)
        assert a.delay_for(a.specs[0]) == b.delay_for(b.specs[0])
        assert a.delay_for(a.specs[0]) != c.delay_for(c.specs[0])
        assert a.delay_for(a.specs[0]) > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", 0, 0)
        # One name per behaviour: these would alias kill / delay / a wire kind.
        for alias in ("drop", "corrupt", "slow_host"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultSpec(alias, 0, 0)
