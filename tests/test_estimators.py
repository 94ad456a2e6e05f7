import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypokit import (
    InsufficientDataError,
    InvalidArgumentError,
    asymptotic_variance_acf,
    batch_means_variance,
)
from hypokit.estimators import _autocovariance


def ar1(n, rho, seed=0):
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = xi[0] / math.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + xi[i]
    return x


def test_iid_series_recovers_marginal_variance():
    rng = np.random.default_rng(42)
    x = 3.0 * rng.standard_normal(50_000) + 1.0
    rep = asymptotic_variance_acf(x, spacing=1.0)
    assert rep.mean == pytest.approx(1.0, abs=0.05)
    assert rep.sigma2 == pytest.approx(9.0, rel=0.1)
    assert rep.ess == pytest.approx(50_000, rel=0.1)


def test_ar1_sigma2_matches_closed_form():
    """AR(1), rho=0.9, unit innovations: sigma2 = (1+rho)/(1-rho) * var = 100."""
    x = ar1(400_000, 0.9, seed=12345)
    rep = asymptotic_variance_acf(x, spacing=1.0)
    assert rep.sigma2 == pytest.approx(100.0, rel=0.15)
    bm = batch_means_variance(x, spacing=1.0, n_batches=64)
    assert bm.sigma2 == pytest.approx(100.0, rel=0.25)
    # the two estimators agree with each other too
    assert bm.sigma2 == pytest.approx(rep.sigma2, rel=0.3)


def test_acf_window_is_positive_odd():
    x = ar1(10_000, 0.5, seed=3)
    rep = asymptotic_variance_acf(x, spacing=1.0)
    assert rep.method == "acf_ips"
    assert rep.window_or_batches >= 1
    assert rep.window_or_batches % 2 == 1  # initial-positive-sequence cut


def test_spacing_scales_sigma2_linearly():
    x = ar1(20_000, 0.8, seed=7)
    r1 = asymptotic_variance_acf(x, spacing=1.0)
    r2 = asymptotic_variance_acf(x, spacing=0.25)
    assert r2.sigma2 == pytest.approx(0.25 * r1.sigma2, rel=1e-12)
    # ess is spacing-free: same information content either way
    assert r2.ess == pytest.approx(r1.ess, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_rescaling_observable_scales_sigma2_quadratically(a):
    x = ar1(5_000, 0.6, seed=11)
    base = asymptotic_variance_acf(x, spacing=1.0).sigma2
    scaled = asymptotic_variance_acf(a * x, spacing=1.0).sigma2
    assert scaled == pytest.approx(a * a * base, rel=1e-9)


def test_constant_series_warns_and_returns_zero():
    x = np.full(500, 2.5)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        rep = asymptotic_variance_acf(x, spacing=1.0)
    assert rep.sigma2 == 0.0
    assert any("constant" in str(wi.message).lower() for wi in w)


def test_too_short_series_rejected():
    with pytest.raises(InsufficientDataError):
        asymptotic_variance_acf(np.arange(50, dtype=float), spacing=1.0)
    with pytest.raises(InsufficientDataError):
        batch_means_variance(np.arange(50, dtype=float), spacing=1.0)


def test_bad_spacing_rejected():
    with pytest.raises(InvalidArgumentError):
        asymptotic_variance_acf(np.arange(500, dtype=float), spacing=0.0)


def test_batch_means_batch_count():
    x = ar1(4_096, 0.5, seed=5)
    rep = batch_means_variance(x, spacing=1.0, n_batches=16)
    assert rep.method == "batch_means"
    assert rep.window_or_batches == 16
    with pytest.raises(InvalidArgumentError):
        batch_means_variance(x, spacing=1.0, n_batches=1)


def test_ess_never_exceeds_sample_count():
    x = ar1(30_000, 0.95, seed=21)
    rep = asymptotic_variance_acf(x, spacing=0.01)
    assert 0 < rep.ess <= 30_000
    # strongly correlated chain: far fewer effective samples than raw ones
    assert rep.ess < 3_000


def _former_autocovariance(x):
    """The estimator's autocovariances as they were computed before the in-place buffer."""
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(), nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:n].real / n


def _drifting_series(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) + 0.01 * np.cumsum(rng.standard_normal(n))


@pytest.mark.parametrize("n", [8193, 100_000, 1_000_000])
def test_autocovariance_keeps_its_bits(n):
    """Above n = 8192, NumPy's temporary elision evaluated f * conj(f) as conj(f) * f, the order kept now."""
    x = _drifting_series(n)
    assert np.array_equal(_autocovariance(x), _former_autocovariance(x))


@pytest.mark.parametrize("n", [100, 101, 8192])
def test_autocovariance_of_short_series_moves_by_roundoff(n):
    """Below that, f * conj(f) was computed in the other order: the last bit of its imaginary part moves."""
    x = _drifting_series(n)
    acov, former = _autocovariance(x), _former_autocovariance(x)
    assert np.max(np.abs(acov - former)) <= 1e-15 * former[0]


def test_acf_memory_is_two_padded_buffers(traced_peak):
    """At n = 2**18 (nfft = 2**19) the traced peak was 3.50 x 8 nfft bytes and is 2.25 x now:
    the padded buffer, its rfft and one 1 MiB chunk of conj(f)."""
    n = 1 << 18
    x = _drifting_series(n)
    rep, peak = traced_peak(asymptotic_variance_acf, x, 1.0)
    assert rep.sigma2 > 0
    assert peak < 2.5 * 8 * (2 * n)
