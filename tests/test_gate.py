import ast
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tableprep import cli, config, gate
from tableprep.config import load_config
from tableprep.errors import EmptyGroupError, GroupTooSmallError
from tableprep.gate import (
    LOW_QUALITY,
    LOW_VARIANCE,
    GateConfig,
    GroupMember,
    advantages,
    as_fraction,
    gate_record,
    group_stats,
    sample_accepted_group,
    vgr_accept,
)

from oracles import ref_group_stats, ref_sample_accepted_group

# rewards of every type the gate accepts; the Fractions share denominators
# 3, 7 and 1024, so a group's common denominator grows past each of them
_rewards = st.one_of(
    st.integers(-3, 3),
    st.floats(-10, 10, allow_nan=False),
    st.builds(Fraction, st.integers(-5000, 5000), st.sampled_from([1, 3, 7, 1024])),
    st.decimals(-10, 10, allow_nan=False, places=3),
)


class TestGroupStats:
    def test_worked_example(self):
        stats = group_stats([0.9, 0.5, 0.5])
        assert stats.mean == Fraction(19, 30)
        assert math.isclose(stats.std, 0.18856180831641267)
        assert stats.max == Fraction(9, 10)

    def test_constant_group_zero_variance(self):
        assert group_stats([0.7, 0.7, 0.7]).variance == 0

    def test_two_point_group(self):
        stats = group_stats([0, 1])
        assert stats.mean == Fraction(1, 2)
        assert stats.variance == Fraction(1, 4)

    def test_population_not_sample_variance(self):
        # population variance of [0, 1] is 1/4; the sample estimator would be 1/2
        assert group_stats([0, 1]).variance == Fraction(1, 4)

    def test_empty_group(self):
        with pytest.raises(EmptyGroupError):
            group_stats([])

    def test_single_element_allowed(self):
        stats = group_stats([0.4])
        assert stats.variance == 0 and stats.max == Fraction(2, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rewards, min_size=1, max_size=16))
    @example([Fraction(1, 3), Fraction(2, 7), Fraction(5, 1024), 1, 0.1, Decimal("0.125")])
    def test_agrees_with_fraction_by_fraction_oracle(self, rewards):
        assert group_stats(rewards) == ref_group_stats(rewards)


# rewards spread up to 10^300 apart, so a group's variance may be far past
# the largest float
_wide_rewards = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.integers(-(10**300), 10**300),
    st.builds(Fraction, st.integers(-(10**300), 10**300), st.integers(1, 10**30)),
    st.decimals(-(10**300), 10**300, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_wide_rewards, min_size=2, max_size=8))
@example([1e200, 0, 3])
@example([1e300, -1e300])
@example([0.5, 0.5])
def test_std_is_the_variance_root_rounded_down_and_advantages_stay_exact(rewards):
    stats = group_stats(rewards)
    q = stats.variance.denominator
    assert stats.std**2 <= stats.variance < (stats.std + Fraction(1, q * 2**64)) ** 2
    # both thresholds at the floor, so every group is accepted and recorded
    cfg = GateConfig(variance_threshold=Fraction(0), quality_threshold=stats.max)
    outcome = sample_accepted_group(lambda n: [GroupMember("", as_fraction(r)) for r in rewards], len(rewards), cfg)
    assert sum(outcome.advantages, Fraction(0)) == 0
    assert all(math.isfinite(a) for a in gate_record("i", outcome)["advantages"])


def test_no_gate_path_names_an_overflow_error():
    """The std is exact and a reward no float holds is refused at read, so
    neither the gate nor the ``gate`` command handles an OverflowError; nor
    does the config reader, which refuses a number no float holds."""
    for module in (gate, cli, config):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        names = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "OverflowError")
        assert names == [], f"{module.__name__} names OverflowError at lines {names}"


class TestAdvantages:
    def test_paper_high_group(self):
        adv = [float(a) for a in advantages([0.9, 0.5, 0.5])]
        for got, want in zip(adv, [1.41, -0.70, -0.70]):
            assert abs(got - want) < 0.01

    def test_paper_low_group_same_shape(self):
        adv = [float(a) for a in advantages([0.3, 0.1, 0.1])]
        for got, want in zip(adv, [1.41, -0.70, -0.70]):
            assert abs(got - want) < 0.01

    def test_distortion_claim(self):
        high = advantages([0.9, 0.5, 0.5])
        low = advantages([0.3, 0.1, 0.1])
        assert all(abs(float(a - b)) < 0.03 for a, b in zip(high, low))
        assert not vgr_accept([0.3, 0.1, 0.1]).accepted

    def test_constant_group_all_zero(self):
        assert advantages([0.5, 0.5]) == [0, 0]

    def test_too_small(self):
        with pytest.raises(GroupTooSmallError):
            advantages([1.0])

    def test_sum_exactly_zero(self):
        assert sum(advantages([0.9, 0.5, 0.5]), Fraction(0)) == 0

    def test_ranking_preserved(self):
        rewards = [0.2, 0.9, 0.4, 0.9]
        adv = advantages(rewards)
        assert adv.index(max(adv)) == rewards.index(max(rewards))


@settings(max_examples=60, deadline=None)
@given(
    rewards=st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=100), min_size=2, max_size=8
    )
)
def test_advantage_properties(rewards):
    adv = advantages(rewards)
    assert sum(adv, Fraction(0)) == 0
    best = max(range(len(rewards)), key=lambda i: rewards[i])
    assert adv[best] == max(adv)


class TestVgrAccept:
    def test_constant_group_low_variance(self):
        decision = vgr_accept([0.5, 0.5, 0.5])
        assert not decision.accepted
        assert decision.reason == LOW_VARIANCE

    def test_low_group_rejected_variance_first(self):
        # variance 0.00889 < 0.1 and max 0.3 < 0.5; variance names the rejection
        decision = vgr_accept([0.3, 0.1, 0.1])
        assert not decision.accepted
        assert decision.reason == LOW_VARIANCE

    def test_low_quality(self):
        # variance (mean 0.2): (0.09+0.01+0.04+0.16)/4 = 0.075 < 0.1... widen:
        decision = vgr_accept([0.45, 0.0, 0.0, 0.0], GateConfig(variance_threshold=Fraction(1, 100)))
        assert decision.reason == LOW_QUALITY

    def test_accepted_group(self):
        # variance 19/150 ~ 0.1267 >= 0.1, max 0.9 >= 0.5
        decision = vgr_accept([0.9, 0.1, 0.2])
        assert decision.accepted
        stats = group_stats([0.9, 0.1, 0.2])
        assert stats.variance == Fraction(19, 150)
        assert stats.variance >= Fraction(1, 10)
        assert stats.max >= Fraction(1, 2)

    def test_exact_threshold_boundaries(self):
        # variance exactly at the threshold passes (>=); just below fails
        cfg = GateConfig(variance_threshold=Fraction(1, 4), quality_threshold=Fraction(1, 2))
        assert vgr_accept([0, 1], cfg).accepted
        assert vgr_accept([Fraction(1, 100), 1], cfg).reason == LOW_VARIANCE

    def test_hundred_random_constant_groups(self):
        rng = random.Random(7)
        rejections = 0
        for _ in range(100):
            value = Fraction(rng.randint(0, 100), 100)
            group = [value] * rng.randint(2, 8)
            decision = vgr_accept(group)
            if not decision.accepted and decision.reason == LOW_VARIANCE:
                rejections += 1
        assert rejections == 100


class TestGateConfig:
    def test_defaults_match_training_setup(self):
        cfg = GateConfig()
        assert cfg.variance_threshold == Fraction(1, 10)
        assert cfg.quality_threshold == Fraction(1, 2)
        assert cfg.advantage_epsilon == Fraction(1, 10**6)
        assert cfg.max_resample_attempts == 4

    def test_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"gate": {"variance_threshold": 0.2, "max_resample_attempts": 2}}))
        cfg = load_config(str(path)).gate
        assert cfg.variance_threshold == Fraction(1, 5)
        assert cfg.max_resample_attempts == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            GateConfig(advantage_epsilon=Fraction(0))
        with pytest.raises(ValueError):
            GateConfig(max_resample_attempts=0)


def _source_from(groups):
    it = iter(groups)

    def source(n):
        rewards = next(it)
        assert len(rewards) == n
        return [GroupMember(f"o{i}", as_fraction(r)) for i, r in enumerate(rewards)]

    return source


class TestSampleAcceptedGroup:
    def test_constant_source_exhausts(self):
        outcome = sample_accepted_group(_source_from([[0.5] * 3] * 4), 3)
        assert not outcome.accepted
        assert outcome.attempts == 4
        assert outcome.rejection_reasons == (LOW_VARIANCE,) * 4

    def test_second_draw_accepted(self):
        outcome = sample_accepted_group(
            _source_from([[0.5, 0.5, 0.5], [0.9, 0.1, 0.2]]), 3
        )
        assert outcome.accepted
        assert outcome.attempts == 2
        assert outcome.rejection_reasons == (LOW_VARIANCE,)
        assert outcome.advantages is not None

    def test_group_size_one_rejected(self):
        with pytest.raises(GroupTooSmallError):
            sample_accepted_group(_source_from([[0.5]]), 1)

    def test_accepted_groups_satisfy_both_constraints(self):
        rng = random.Random(11)
        cfg = GateConfig()

        def source(n):
            return [
                GroupMember(f"o{i}", Fraction(rng.randint(0, 150), 100)) for i in range(n)
            ]

        accepted = 0
        for _ in range(50):
            outcome = sample_accepted_group(source, 4, cfg)
            if outcome.accepted:
                accepted += 1
                stats = group_stats([m.reward for m in outcome.group])
                assert stats.variance >= cfg.variance_threshold
                assert stats.max >= cfg.quality_threshold
        assert accepted > 0

    def test_gate_record_shapes(self):
        accepted = sample_accepted_group(_source_from([[0.9, 0.1, 0.2]]), 3)
        record = gate_record("inst-1", accepted)
        assert record["accepted"] and record["instance_id"] == "inst-1"
        assert len(record["advantages"]) == 3
        exhausted = sample_accepted_group(_source_from([[0.5, 0.5]] * 4), 2)
        record = gate_record("inst-2", exhausted)
        assert not record["accepted"]
        assert record["rewards"] is None


_THRESHOLDS = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 4, 10]))


def _replay(draws):
    remaining = iter(draws)
    return lambda n: [GroupMember(f"o{i}", as_fraction(r)) for i, r in enumerate(next(remaining))]


def _outcome_or_error(sample, draws, group_size, cfg):
    try:
        return sample(_replay(draws), group_size, cfg)
    except (EmptyGroupError, GroupTooSmallError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_rewards, max_size=6), min_size=4, max_size=4), st.integers(1, 6),
       _THRESHOLDS, _THRESHOLDS, st.sampled_from([Fraction(1, 10**6), Fraction(1, 3)]), st.integers(1, 4))
@example([[1, 0], [], [], []], 2, Fraction(0), Fraction(0), Fraction(1, 10**6), 4)
@example([[0.5, 0.5], [1]], 2, Fraction(0), Fraction(0), Fraction(1, 10**6), 4)
@example([[0.5, 0.5], []], 2, Fraction(0), Fraction(1), Fraction(1, 10**6), 4)
def test_sample_accepted_group_matches_two_pass_oracle(draws, group_size, variance_threshold,
                                                       quality_threshold, epsilon, attempts):
    cfg = GateConfig(variance_threshold, quality_threshold, epsilon, attempts)
    got = _outcome_or_error(sample_accepted_group, draws, group_size, cfg)
    assert got == _outcome_or_error(ref_sample_accepted_group, draws, group_size, cfg)


def test_accepted_outcome_holds_the_drawn_members():
    members = (GroupMember("a", Fraction(1, 2)), GroupMember("b", Fraction(1, 4)))
    outcome = sample_accepted_group(lambda n: list(members), 2, GateConfig(0, 0))
    assert outcome.group == members
    assert gate_record("i", outcome)["rewards"] == [0.5, 0.25]
