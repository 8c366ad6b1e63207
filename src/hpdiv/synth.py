"""Seeded synthetic samplers for the benchmark scenarios.

A sampling state is the plain pair (spec, numpy Generator) that
``make_state`` returns and ``sample`` unpacks. Streams are counter-based
(Philox), so identical (spec, seed) pairs reproduce bit-identical samples,
two ``sample`` calls on one state continue one stream, and parallel trials
key their own streams from ``trial_seed(base_seed, trial_index, role)``
without coordination.
Those keys are distinct within one base seed, but not across bases: the
set {base_seed XOR t : t < T} is the same for many bases, so nearby base
seeds draw largely the same trials.

Truncated normals are drawn by rejection from the untruncated Gaussian:
the benchmark boxes sit at several standard deviations, so acceptance is
essentially 1 and nothing smarter is warranted.
"""

from __future__ import annotations

import numpy as np

from .core import HPDivError, PointCloud
from .oracle import DistributionSpec, KIND_UNIFORM

# Rejection sampling gives up when fewer than this fraction of a probe
# batch lands inside the box.
_MIN_ACCEPT_RATE = 1e-4
_PROBE = 20_000
# Rows per batch after the probe. A box that keeps about one row in 10**4
# would otherwise ask for n * 1.2e4 rows at once (2.4 GB at n = 25000).
_MAX_BATCH = 1 << 18


class RejectionStall(HPDivError):
    """The box excludes essentially all Gaussian mass; sampling cannot finish."""


def seeded_rng(seed: int) -> np.random.Generator:
    """A Philox stream keyed by ``seed``, a key in [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise HPDivError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def make_state(spec: DistributionSpec, seed: int) -> tuple[DistributionSpec, np.random.Generator]:
    """(spec, seeded_rng(seed)), the state ``sample`` draws from. Single
    owner, not thread-shared: each draw continues the Generator's stream."""
    return spec, seeded_rng(int(seed))


def trial_seed(base_seed: int, trial_index: int, role: int = 0) -> int:
    """Stream seed for one trial, distinct across the trials of one base
    seed; role separates paired streams (0 for the X sample, 1 for Y)."""
    return ((int(base_seed) ^ int(trial_index)) << 1) | (role & 1)


def sample(state: tuple[DistributionSpec, np.random.Generator], n: int) -> PointCloud:
    """Draw n i.i.d. points from the spec of a ``make_state`` pair."""
    if n < 1:
        raise HPDivError(f"sample size must be >= 1, got {n}")
    spec, rng = state
    lo, hi = spec.box[:, 0], spec.box[:, 1]
    if spec.kind == KIND_UNIFORM:
        return PointCloud(rng.uniform(lo, hi, size=(n, spec.dim)))
    scale = np.sqrt(spec.cov)
    # A head of the probe first, so a small n can stop there; else the probe's
    # _PROBE rows decide a stall and fix the rate that sizes every later batch,
    # up to _MAX_BATCH rows.
    # Each draw continues the stream, so the bytes match one long draw.
    kept, have, drawn, size = [], 0, 0, min(_PROBE, int(1.2 * n) + 64)
    while True:
        pts = spec.mean + scale * rng.standard_normal((size, spec.dim))
        kept.append(pts[((pts >= lo) & (pts <= hi)).all(axis=1)])
        have, drawn = have + len(kept[-1]), drawn + size
        if have >= max(n, _MIN_ACCEPT_RATE * _PROBE):
            return PointCloud(np.vstack(kept)[:n])
        if drawn == _PROBE:
            rate = have / _PROBE
            if rate < _MIN_ACCEPT_RATE:
                raise RejectionStall(
                    f"acceptance rate {rate:.2e} below {_MIN_ACCEPT_RATE:.0e}; "
                    f"the box excludes essentially all Gaussian mass"
                )
        size = _PROBE - drawn if drawn < _PROBE else int((n - have) / rate * 1.2) + 64
        size = min(size, _MAX_BATCH)
