"""Group reward statistics, advantage normalization, and the variance gate.

Statistics are population statistics (divide by group size) and are computed
on exact rationals, so threshold comparisons in the gate are reproducible.
Advantages divide each reward's deviation by (std + epsilon); the epsilon
keeps constant groups at exactly zero instead of dividing by zero.

The gate rejects groups whose reward variance is below the variance threshold
(noise would be amplified into large advantages) or whose best reward is below
the quality threshold (the group would reinforce a merely least-bad output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Sequence

from .errors import EmptyGroupError, GroupTooSmallError
from .ops import Pipeline

LOW_VARIANCE = "low_variance"
LOW_QUALITY = "low_quality"


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # via str() so 0.1 means one tenth, not its binary neighbor
        return Fraction(str(x))
    if isinstance(x, (int, Decimal)):
        return Fraction(x)
    return Fraction(str(x))


@dataclass(frozen=True)
class GateConfig:
    variance_threshold: Fraction = Fraction(1, 10)
    quality_threshold: Fraction = Fraction(1, 2)
    advantage_epsilon: Fraction = Fraction(1, 10**6)
    max_resample_attempts: int = 4

    def __post_init__(self):
        if self.variance_threshold < 0:
            raise ValueError(f"variance_threshold must be >= 0, got {self.variance_threshold}")
        if self.advantage_epsilon <= 0:
            raise ValueError(f"advantage_epsilon must be > 0, got {self.advantage_epsilon}")
        if self.max_resample_attempts < 1:
            raise ValueError(f"max_resample_attempts must be >= 1, got {self.max_resample_attempts}")


@dataclass(frozen=True)
class GroupStats:
    mean: Fraction
    variance: Fraction
    std: float
    max: Fraction
    size: int


def group_stats(rewards: Sequence) -> GroupStats:
    """Population mean/variance/std/max of a reward group."""
    if not rewards:
        raise EmptyGroupError("cannot compute statistics of an empty group")
    values = [as_fraction(r) for r in rewards]
    n = len(values)
    # one integer pass over a common denominator d: v_i = a_i / d, so
    # mean = sum(a) / (n d) and variance = (n sum(a^2) - sum(a)^2) / (n d)^2
    d = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (d // v.denominator) for v in values]
    s = sum(scaled)
    mean = Fraction(s, n * d)
    variance = Fraction(n * sum(a * a for a in scaled) - s * s, (n * d) ** 2)
    return GroupStats(
        mean=mean,
        variance=variance,
        std=math.sqrt(variance),
        max=Fraction(max(scaled), d),
        size=n,
    )


def _require_pair(rewards: Sequence) -> None:
    if len(rewards) < 2:
        raise GroupTooSmallError("advantages need a group of at least 2")


def _normalized(rewards: Sequence, stats: GroupStats, advantage_epsilon) -> list[Fraction]:
    """(R_i - mean) / (std + epsilon) for the group that ``stats`` describes,
    each formed as one Fraction of integers."""
    scale = Fraction(stats.std) + as_fraction(advantage_epsilon)
    m, n = stats.mean.numerator, stats.mean.denominator
    p, q = scale.numerator, scale.denominator
    # (a/b - m/n) / (p/q) = (a n - m b) q / (b n p)
    return [
        Fraction((v.numerator * n - m * v.denominator) * q, v.denominator * n * p)
        for v in map(as_fraction, rewards)
    ]


def advantages(rewards: Sequence, advantage_epsilon=Fraction(1, 10**6)) -> list[Fraction]:
    """Normalized deviations (R_i - mean) / (std + epsilon), as Fractions.

    The mean and deviations are exact, but the std is a float ``math.sqrt``,
    so the shared denominator is float-rounded. What stays exact: the
    advantages sum to zero, and constant groups map to zeros.
    """
    _require_pair(rewards)
    return _normalized(rewards, group_stats(rewards), advantage_epsilon)


@dataclass(frozen=True)
class GateDecision:
    accepted: bool
    reason: str | None = None  # LOW_VARIANCE or LOW_QUALITY when rejected


def _decide(stats: GroupStats, cfg: GateConfig) -> GateDecision:
    if stats.variance < cfg.variance_threshold:
        return GateDecision(False, LOW_VARIANCE)
    if stats.max < cfg.quality_threshold:
        return GateDecision(False, LOW_QUALITY)
    return GateDecision(True)


def vgr_accept(rewards: Sequence, config: GateConfig | None = None) -> GateDecision:
    """Apply both group constraints; the first failing one names the rejection.

    Variance is checked before quality.
    """
    return _decide(group_stats(rewards), config or GateConfig())


@dataclass(frozen=True)
class GroupMember:
    output_text: str
    reward: Fraction
    pipeline: Pipeline | None = None


@dataclass(frozen=True)
class CandidateGroup:
    members: tuple[GroupMember, ...]

    @property
    def rewards(self) -> list[Fraction]:
        return [m.reward for m in self.members]


@dataclass(frozen=True)
class SampleOutcome:
    group: CandidateGroup | None  # None when exhausted
    advantages: tuple[Fraction, ...] | None
    attempts: int
    rejection_reasons: tuple[str, ...]

    @property
    def accepted(self) -> bool:
        return self.group is not None


def sample_accepted_group(
    source: Callable[[int], Sequence[GroupMember]],
    group_size: int,
    config: GateConfig | None = None,
) -> SampleOutcome:
    """Draw whole groups from ``source`` until one passes the gate.

    Rejected groups are discarded and drawn afresh; after the configured
    number of attempts the outcome is exhausted, carrying every rejection
    reason seen. Each draw's statistics are computed once and give both the
    decision and, when it passes, the advantages.
    """
    cfg = config or GateConfig()
    if group_size < 2:
        raise GroupTooSmallError("group_size must be at least 2")
    reasons: list[str] = []
    for attempt in range(1, cfg.max_resample_attempts + 1):
        group = CandidateGroup(tuple(source(group_size)))
        rewards = group.rewards
        stats = group_stats(rewards)
        decision = _decide(stats, cfg)
        if decision.accepted:
            _require_pair(rewards)
            adv = tuple(_normalized(rewards, stats, cfg.advantage_epsilon))
            return SampleOutcome(group, adv, attempt, tuple(reasons))
        reasons.append(decision.reason or "rejected")
    return SampleOutcome(None, None, cfg.max_resample_attempts, tuple(reasons))


def gate_record(instance_id: str, outcome: SampleOutcome) -> dict:
    """JSON shape emitted per group decision (one JSONL line)."""
    record = {
        "instance_id": instance_id,
        "accepted": outcome.accepted,
        "attempts": outcome.attempts,
        "rejected_reasons": list(outcome.rejection_reasons),
        "rewards": None,
        "advantages": None,
    }
    if outcome.group is not None:
        record["rewards"] = [float(r) for r in outcome.group.rewards]
        record["advantages"] = [float(a) for a in outcome.advantages or ()]
    return record
