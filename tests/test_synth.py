import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, norm

from hpdiv.synth import _MIN_ACCEPT_RATE, _PROBE
from hpdiv import HPDivError, RejectionStall, make_state, sample, trial_seed, truncated_normal, uniform_box


class TestDeterminism:
    def test_uniform_repeatable(self):
        spec = uniform_box((0.0, 1.0))
        a = sample(make_state(spec, 7), 5)
        b = sample(make_state(spec, 7), 5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_tnorm_repeatable(self):
        spec = truncated_normal([0.0, 0.0], 1.0, (-5, 5))
        a = sample(make_state(spec, 123), 64)
        b = sample(make_state(spec, 123), 64)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        spec = uniform_box((0.0, 1.0))
        a = sample(make_state(spec, 1), 16)
        b = sample(make_state(spec, 2), 16)
        assert not np.array_equal(a.points, b.points)

    def test_trial_seed_split(self):
        # the key hashes (base, trial, role), so x/y streams never collide
        # across trials, and no two bases share a trial stream, however close
        # or large they are; bases past 2**32 take a second seed word, which
        # must not read as a trial or role of a one-word base
        bases = [*range(8), 99, *(2**32 + b for b in range(8)), 2**64, 2**127, 2**128, 2**200]
        keys = [trial_seed(b, t, role) for b in bases for t in range(64) for role in (0, 1)]
        assert len(set(keys)) == len(keys)
        assert all(0 <= k < 1 << 128 for k in keys)
        assert trial_seed(2**32, 0, 0) != trial_seed(0, 1, 0)
        assert trial_seed(2**32, 1, 0) != trial_seed(0, 1, 1)


class TestSupport:
    def test_tnorm_inside_box(self):
        spec = truncated_normal([0.0, 0.0], 1.0, (-5, 5))
        pts = sample(make_state(spec, 5), 2000).points
        assert (np.abs(pts) <= 5.0).all()

    def test_tight_box_rejection_still_lands_inside(self):
        spec = truncated_normal([0.0], 1.0, (-0.1, 0.1))
        pts = sample(make_state(spec, 11), 200).points
        assert (np.abs(pts) <= 0.1).all()

    def test_empty_sample_rejected(self):
        with pytest.raises(HPDivError, match="sample size must be >= 1, got 0"):
            sample(make_state(uniform_box((0.0, 1.0)), 1), 0)

    def test_rejection_stall(self):
        spec = truncated_normal([0.0], 1.0, (50.0, 51.0))
        with pytest.raises(RejectionStall):
            sample(make_state(spec, 1), 10)


def stream_accepts(spec, seed, rows=_PROBE):
    """Rows among the first `rows` of the seed's stream that fall in the box."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = rng.standard_normal((rows, spec.dim))
    pts *= np.sqrt(spec.cov)  # in place, with sample's bytes: + and * commute
    pts += spec.mean
    return pts[((pts >= spec.box[:, 0]) & (pts <= spec.box[:, 1])).all(axis=1)]


class TestProbe:
    @pytest.mark.parametrize("box", [(-5.0, 5.0), (-0.1, 0.1), (1.5, 4.0)])
    @pytest.mark.parametrize("n", [1, 17, 500, 1500])
    def test_sample_is_first_accepted_stream_rows(self, box, n):
        # Covers a head that suffices, a head that runs short, and a probe
        # that runs short; batches continue the stream, so one long draw
        # accepts the same rows in the same order.
        spec = truncated_normal([0.0, 0.5], [1.0, 2.0], box)
        expected = stream_accepts(spec, 41, rows=50 * _PROBE)[:n]
        assert len(expected) == n
        np.testing.assert_array_equal(sample(make_state(spec, 41), n).points, expected)

    def test_near_stall_decided_by_full_probe(self):
        # About one row in 20_000 lands in the box. Seed 4419 accepts one
        # row, its 18th, so the head alone would accept it; seed 0 accepts
        # two rows, enough to go on.
        spec = truncated_normal([0.0], 1.0, (3.9, 9.0))
        outcomes = set()
        for seed in (0, 2, 4419):
            if len(stream_accepts(spec, seed)) < _MIN_ACCEPT_RATE * _PROBE:
                with pytest.raises(RejectionStall):
                    sample(make_state(spec, seed), 1)
                outcomes.add("stall")
            else:
                expected = stream_accepts(spec, seed)[:1]
                np.testing.assert_array_equal(sample(make_state(spec, seed), 1).points, expected)
                outcomes.add("ok")
        assert outcomes == {"stall", "ok"}

    def test_near_stall_box_draws_in_bounded_memory(self):
        # Seed 0 accepts 2 of the probe's rows, so 200 rows take about 4e6
        # draws; capped batches bound the memory and continue the stream.
        spec = truncated_normal([0.0], 1.0, (3.9, 9.0))
        tracemalloc.start()
        try:
            got = sample(make_state(spec, 0), 200).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        np.testing.assert_array_equal(got, stream_accepts(spec, 0, rows=4_500_000)[:200])


# sha256 of the bytes of two consecutive sample() calls on one state, seed
# 41: the second call starts where the first left the stream.
STREAM_PINS = {
    # (mean, cov, box, n): the head suffices, the head runs short, the probe runs short
    "d1-head": (([0.0], 1.0, (-5.0, 5.0), 17),
                "1f5b102b12e9fc84d2311a15db867f4c29d7fe43bc02f1a5d597a3970373e084"),
    "d1-head-short": (([0.0], 1.0, (-0.1, 0.1), 500),
                      "f71e53d2ac6e78c27c3d65290dbc53f07a89458a7e1dd947fc69d68faca9f9f0"),
    "d1-probe-short": (([0.0], 1.0, (-0.1, 0.1), 2000),
                       "d93c7bddf9bfb1e7ce5cf29db711b8c08c9bcb6c63af5d3b4090232451ea58e3"),
    "d2-head": (([0.0, 0.5], [1.0, 2.0], (-5.0, 5.0), 17),
                "3dee330e1e073c329be474d572684d4564fa74b20be396fc04ba74d3d1dacab9"),
    "d2-head-short": (([0.0, 0.5], [1.0, 2.0], (-0.1, 0.1), 17),
                      "b7dac97dbb8a31e52b4070949405a1fedd43b9a7708fedec1730c8e9c69b96cd"),
    "d2-probe-short": (([0.0, 0.5], [1.0, 2.0], (-0.1, 0.1), 500),
                       "b9ee37b274d2a01a7ff0a2328d3dd0db9345c8630dc4c48dd562992e73508164"),
}


@pytest.mark.parametrize("case", list(STREAM_PINS))
def test_stream_position_after_a_draw(case):
    (mean, cov, box, n), pin = STREAM_PINS[case]
    state = make_state(truncated_normal(mean, cov, box), 41)
    first, second = sample(state, n).points, sample(state, n).points
    assert hashlib.sha256(first.tobytes() + second.tobytes()).hexdigest() == pin


class TestDistribution:
    def test_sample_mean_clt_bound(self):
        n = 100_000
        spec = truncated_normal([0.0], 1.0, (-5, 5))
        pts = sample(make_state(spec, 2024), n).points
        assert abs(pts.mean()) <= 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_ks_against_analytic_cdf(self, axis):
        """Marginals of a diagonal 2-D truncated normal are 1-D truncated
        normals; KS at the 0.001 level on n = 10^4 (statistical, rerunnable)."""
        spec = truncated_normal([0.0, 1.0], [1.0, 2.0], (-5, 5))
        pts = sample(make_state(spec, 77), 10_000).points
        mu = spec.mean[axis]
        s = math.sqrt(spec.cov[axis])
        z = norm.cdf((5 - mu) / s) - norm.cdf((-5 - mu) / s)

        def cdf(t):
            return (norm.cdf((t - mu) / s) - norm.cdf((-5 - mu) / s)) / z

        stat, pvalue = kstest(pts[:, axis], cdf)
        assert pvalue > 0.001

    def test_uniform_ks(self):
        spec = uniform_box((2.0, 6.0))
        pts = sample(make_state(spec, 31), 10_000).points[:, 0]
        stat, pvalue = kstest(pts, lambda t: (t - 2.0) / 4.0)
        assert pvalue > 0.001
