"""Ergodic averages and asymptotic-variance estimators for time series.

The asymptotic variance sigma^2 of an observable phi is normalized so that
Var[mean of a run of physical length T] ~ sigma^2 / T.  For a series sampled
every `spacing` time units with autocovariances c_k,

    sigma^2 = spacing * (c_0 + 2 sum_{k>=1} c_k),

truncated by Geyer's initial-positive-sequence rule: pair sums
Gamma_j = c_{2j} + c_{2j+1} are summed while they stay positive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError

Array = np.ndarray

_MIN_SAMPLES = 100


@dataclass(frozen=True)
class VarianceReport:
    """Mean, asymptotic variance, and effective sample size of one series."""

    mean: float
    sigma2: float
    ess: float
    method: str
    window_or_batches: int


def _autocovariance(x: Array) -> Array:
    """Biased sample autocovariances c_0..c_{n-1} via FFT, as a view of one padded buffer.

    The centred series is zero-padded to nfft >= 2n - 1 in a real buffer,
    whose rfft f becomes |f|^2 in place and is transformed back into the same
    buffer.  The memory is the buffer and f, about 2 x 8 nfft bytes, plus
    pocketfft's work buffers.  |f|^2 is formed as conj(f) * f: NumPy's complex
    multiply is FMA-contracted, so the operand order sets the last bit of the
    imaginary part, and this order gives the bits of the former
    irfft(f * conj(f)) for n > 8192.
    """
    n = x.size
    nfft = 1 << (2 * n - 1).bit_length()
    buf = np.zeros(nfft)
    np.subtract(x, x.mean(), out=buf[:n])
    f = np.fft.rfft(buf)
    step = 1 << 16  # bins per chunk, so conj's temporary is 1 MiB
    for lo in range(0, f.size, step):
        chunk = f[lo : lo + step]
        np.multiply(np.conj(chunk), chunk, out=chunk)
    np.fft.irfft(f, nfft, out=buf)
    acov = buf[:n]
    acov /= n
    return acov


def _finish(mean: float, sigma2: float, c0: float, n: int, spacing: float, method: str, window: int) -> VarianceReport:
    if sigma2 > 0:
        ess = float(min(n, n * c0 * spacing / sigma2))
    else:
        ess = float(n)
    return VarianceReport(mean=mean, sigma2=sigma2, ess=ess, method=method, window_or_batches=window)


def asymptotic_variance_acf(values: Array, spacing: float) -> VarianceReport:
    """Autocorrelation estimator with the initial-positive-sequence truncation."""
    if not spacing > 0:
        raise InvalidArgumentError(f"spacing must be positive, got {spacing}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise InvalidArgumentError("values must be a 1-D series")
    n = x.size
    if n < _MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {_MIN_SAMPLES} samples, got {n}")

    mean = float(x.mean())
    acov = _autocovariance(x)
    c0 = float(acov[0])
    if c0 <= 0.0:
        warnings.warn("constant series: asymptotic variance is zero", stacklevel=2)
        return _finish(mean, 0.0, 0.0, n, spacing, "acf_ips", 0)

    # Geyer: sum pair autocovariances Gamma_j = c_{2j} + c_{2j+1} while positive.
    n_pairs = n // 2
    pair = acov[0 : 2 * n_pairs : 2] + acov[1 : 2 * n_pairs : 2]
    bad = np.nonzero(pair <= 0.0)[0]
    j_stop = int(bad[0]) if bad.size else n_pairs
    kept = pair[:j_stop]
    sigma2 = float(spacing * (2.0 * kept.sum() - c0))
    sigma2 = max(sigma2, 0.0)
    window = max(2 * j_stop - 1, 0)  # largest lag whose autocovariance was used
    return _finish(mean, sigma2, c0, n, spacing, "acf_ips", window)


def batch_means_variance(values: Array, spacing: float, n_batches: int = 32) -> VarianceReport:
    """Nonoverlapping batch-means estimator; trailing remainder samples are dropped."""
    if not spacing > 0:
        raise InvalidArgumentError(f"spacing must be positive, got {spacing}")
    if n_batches < 2:
        raise InvalidArgumentError(f"need at least 2 batches, got {n_batches}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise InvalidArgumentError("values must be a 1-D series")
    n = x.size
    if n < max(_MIN_SAMPLES, 2 * n_batches):
        raise InsufficientDataError(f"need at least {max(_MIN_SAMPLES, 2 * n_batches)} samples, got {n}")

    batch = n // n_batches
    used = x[: batch * n_batches]
    means = used.reshape(n_batches, batch).mean(axis=1)
    mean = float(x.mean())
    c0 = float(np.var(x))
    if c0 <= 0.0:
        warnings.warn("constant series: asymptotic variance is zero", stacklevel=2)
        return _finish(mean, 0.0, 0.0, n, spacing, "batch_means", n_batches)
    sigma2 = float(spacing * batch * np.var(means, ddof=1))
    return _finish(mean, sigma2, c0, n, spacing, "batch_means", n_batches)
