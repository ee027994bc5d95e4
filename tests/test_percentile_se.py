"""The exact bootstrap standard error of a percentile against two referees:
every one of the n**n resamples for n <= 6, and the seeded resampling
bootstrap of tests/oracles.py for n up to 2000."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archscope.errors import ValidationError
from archscope.profiler import SampleSet, percentile_stderrs

from .oracles import bootstrap_percentile_stderr

RESAMPLES = 20_000


def _every_resample_stderrs(values, taus):
    """Standard deviation of each tau-percentile over all n**n resamples."""
    n = values.size
    idx = np.array(list(itertools.product(range(n), repeat=n)))
    return np.std(np.percentile(values[idx], taus, axis=1), axis=1)


def _samples(n):
    rng = np.random.default_rng(n)
    return {
        "distinct": rng.normal(size=n),
        "ties": rng.integers(0, 3, size=n).astype(float),
        "one-outlier": np.r_[np.ones(n - 1), 1e3],
        "constant": np.full(n, 2.5),
    }


def _ranks(n):
    grid = [100.0 * i / (n - 1) for i in range(n)]  # g = 0: no interpolation
    return [0.0, 100.0, *grid, *np.random.default_rng(100 + n).uniform(0, 100, 5)]


@pytest.mark.parametrize("n", range(2, 7))
def test_matches_every_resample(n):
    for kind, values in _samples(n).items():
        ordered = np.sort(values)[None, :]
        taus = _ranks(n)
        for tau, truth in zip(taus, _every_resample_stderrs(values, taus)):
            exact = percentile_stderrs(ordered, tau)[0]
            assert exact == pytest.approx(truth, rel=1e-9, abs=0), (kind, tau)


def test_rows_are_independent_and_order_free():
    rng = np.random.default_rng(7)
    block = rng.normal(size=(5, 40))
    block[2] = np.round(block[2])  # ties
    ordered = np.sort(block, axis=1)
    for tau in (0.0, 5.0, 37.5, 50.0, 95.0, 100.0):
        stacked = percentile_stderrs(ordered, tau)
        for row, se in zip(block, stacked):
            single = SampleSet(metric="m", values=rng.permutation(row), seed=0)
            assert single.percentile_stderr(tau) == pytest.approx(se, rel=1e-12, abs=0)


def test_shift_and_scale_equivariant():
    values = np.sort(np.random.default_rng(3).gamma(2.0, size=500))[None, :]
    for tau in (5.0, 50.0, 95.0):
        se = percentile_stderrs(values, tau)[0]
        assert percentile_stderrs(3.0 * values + 1e6, tau)[0] == pytest.approx(3 * se, rel=1e-6)


def test_rejects_ranks_outside_0_100():
    s = SampleSet(metric="m", values=np.arange(5.0), seed=0)
    for tau in (-0.5, 100.5):
        with pytest.raises(ValidationError, match="rank"):
            s.percentile_stderr(tau)


def test_large_samples_stay_finite():
    values = np.sort(np.random.default_rng(11).normal(size=10_000))[None, :]
    for tau in (0.0, 5.0, 50.0, 95.0, 100.0):
        se = percentile_stderrs(values, tau)[0]
        assert np.isfinite(se) and se > 0


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(2, 2000),
    u=st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(0.0, 1.0)),
    on_grid=st.booleans(),
    levels=st.sampled_from([0, 2, 5, 40]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2000, u=0.05, on_grid=False, levels=0, seed=1)
@example(n=2000, u=1.0, on_grid=False, levels=40, seed=2)
@example(n=1001, u=0.5, on_grid=True, levels=5, seed=3)
def test_matches_resampling_bootstrap(n, u, on_grid, levels, seed):
    """Within 3 Monte Carlo standard errors of a B=20000 bootstrap; levels > 0
    draws values from that many distinct levels, so ties are common."""
    tau = 100.0 * (round(u * (n - 1)) / (n - 1) if on_grid else u)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) if levels == 0 else rng.integers(0, levels, size=n) * 1.0
    exact = percentile_stderrs(np.sort(values)[None, :], tau)[0]
    sd, mc_se = bootstrap_percentile_stderr(values, tau, RESAMPLES,
                                            np.random.default_rng([seed, 1]))
    if sd == 0.0:
        # every resample hit the modal percentile, so any other value has
        # probability p <= exact**2 / ptp**2 and (1 - p)**B must not be tiny
        assert RESAMPLES * exact**2 <= 9.0 * np.ptp(values) ** 2
    else:
        assert abs(exact - sd) <= 3.0 * mc_se + 1e-12 * sd, (exact, sd, mc_se)
