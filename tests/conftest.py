import os

import numpy as np
import pytest

from hpdiv import PointCloud


@pytest.fixture
def threads(monkeypatch):
    """set_threads(count) sets HPDIV_THREADS=count on a process allowed 8
    CPUs, so that worker_count() is count on any machine (count <= 8)."""

    def set_threads(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("HPDIV_THREADS", str(count))

    return set_threads


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_cloud(rng, n: int, d: int, scale: float = 1.0) -> PointCloud:
    return PointCloud(rng.normal(0.0, scale, size=(n, d)))


def tie_free(points: np.ndarray) -> bool:
    """True when every point's neighbor distances are pairwise distinct."""
    pts = np.asarray(points)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    n = len(pts)
    for i in range(n):
        row = np.delete(d2[i], i)
        if len(np.unique(row)) != n - 1:
            return False
    return True


@pytest.fixture
def hand_pair():
    """The 1-D worked example: X = {0, 2}, Y = {1, 3}."""
    return PointCloud([[0.0], [2.0]]), PointCloud([[1.0], [3.0]])
