"""Seeded synthetic samplers for the benchmark scenarios.

Streams are counter-based (Philox), so identical (spec, seed) pairs
reproduce bit-identical samples, and parallel trials key their own streams
from ``trial_seed(base_seed, trial_index, role)`` without coordination.
Those keys are distinct within one base seed, but not across bases: the
set {base_seed XOR t : t < T} is the same for many bases, so nearby base
seeds draw largely the same trials.

Truncated normals are drawn by rejection from the untruncated Gaussian:
the benchmark boxes sit at several standard deviations, so acceptance is
essentially 1 and nothing smarter is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HPDivError, PointCloud
from .oracle import DistributionSpec, KIND_UNIFORM

# Rejection sampling gives up when fewer than this fraction of a probe
# batch lands inside the box.
_MIN_ACCEPT_RATE = 1e-4
_PROBE = 20_000


class RejectionStall(HPDivError):
    """The box excludes essentially all Gaussian mass; sampling cannot finish."""


@dataclass
class SamplerState:
    """Single-owner sampling stream for one spec. Not thread-shared."""

    spec: DistributionSpec
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = seeded_rng(self.seed)


def seeded_rng(seed: int) -> np.random.Generator:
    """A Philox stream keyed by ``seed``, a key in [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise HPDivError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def make_state(spec: DistributionSpec, seed: int) -> SamplerState:
    return SamplerState(spec=spec, seed=int(seed))


def trial_seed(base_seed: int, trial_index: int, role: int = 0) -> int:
    """Stream seed for one trial, distinct across the trials of one base
    seed; role separates paired streams (0 for the X sample, 1 for Y)."""
    return ((int(base_seed) ^ int(trial_index)) << 1) | (role & 1)


def sample(state: SamplerState, n: int) -> PointCloud:
    """Draw n i.i.d. points from the state's spec."""
    if n < 1:
        raise HPDivError(f"sample size must be >= 1, got {n}")
    spec = state.spec
    rng = state._rng
    lo, hi = spec.box[:, 0], spec.box[:, 1]
    if spec.kind == KIND_UNIFORM:
        pts = rng.uniform(lo, hi, size=(n, spec.dim))
        return PointCloud(pts)
    scale = np.sqrt(spec.cov)
    draw = lambda size: spec.mean + scale * rng.standard_normal((size, spec.dim))
    inside = lambda pts: pts[((pts >= lo) & (pts <= hi)).all(axis=1)]
    # The probe is drawn head first, so a small n stops after the head; the
    # bytes match one full-probe draw.
    head = min(_PROBE, int(1.2 * n) + 64)
    accepted = inside(draw(head))
    if len(accepted) >= max(n, _MIN_ACCEPT_RATE * _PROBE):
        return PointCloud(accepted[:n])
    if head < _PROBE:
        accepted = np.vstack([accepted, inside(draw(_PROBE - head))])
    rate = len(accepted) / _PROBE
    if rate < _MIN_ACCEPT_RATE:
        raise RejectionStall(
            f"acceptance rate {rate:.2e} below {_MIN_ACCEPT_RATE:.0e}; "
            f"the box excludes essentially all Gaussian mass"
        )
    kept = [accepted]
    have = len(accepted)
    while have < n:
        good = inside(draw(int((n - have) / max(rate, _MIN_ACCEPT_RATE) * 1.2) + 64))
        kept.append(good)
        have += len(good)
    return PointCloud(np.vstack(kept)[:n])
