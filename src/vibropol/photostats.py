"""Pulsed single-emitter photon streams and g2(tau) analysis.

The source model: each excitation pulse emits at most one signal photon
(Bernoulli success) with an exponential delay; background is a
homogeneous Poisson process; an ideal 50:50 splitter routes every
detection to one of two channels.  The pulsed g2(0) estimator divides
the center-peak coincidence sum by the mean side-peak sum, the standard
normalization for pulsed antibunching values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID_POINTS, ValidationError

# largest stream simulated on request: pulses plus expected background
# counts (about 13 s of pulses at 20 MHz)
MAX_STREAM_EVENTS = 2 ** 28
# largest set of in-window tag pairs g2_histogram expands (~40 B each)
MAX_PAIRS = 2 ** 24


@dataclass(frozen=True)
class PhotonStream:
    """Time-tagged detections: picosecond tags plus detector channel."""

    time_tags: np.ndarray     # ps, sorted ascending
    channel: np.ndarray       # 0 or 1

    def __post_init__(self):
        tags = np.asarray(self.time_tags, dtype=float)
        ch = np.asarray(self.channel)
        if tags.shape != ch.shape or tags.ndim != 1:
            raise ValidationError("tags and channels must be equal 1-D arrays")
        if tags.size > 1 and np.any(np.diff(tags) < 0):
            raise ValidationError("time tags must be sorted ascending")
        if not np.all((ch == 0) | (ch == 1)):
            raise ValidationError("channels must be 0 or 1")
        tags = tags.copy(); tags.setflags(write=False)
        ch = ch.astype(np.int8).copy(); ch.setflags(write=False)
        object.__setattr__(self, "time_tags", tags)
        object.__setattr__(self, "channel", ch)


@dataclass(frozen=True)
class G2Histogram:
    bin_centers: np.ndarray   # ns
    coincidences: np.ndarray  # integer counts
    rep_period: float         # ns
    g2_zero: float
    g2_zero_err: float


def simulate_stream(signal_prob: float, background_rate: float,
                    rep_rate_mhz: float, lifetime_ns: float,
                    duration_s: float, seed: int = 0) -> PhotonStream:
    """Synthesize a time-tagged stream from a pulsed emitter + background.

    signal_prob is the per-pulse detection probability of the emitter
    photon; background_rate is in counts/s.  Deterministic under a fixed
    seed.  Pulse generation is chunked so long runs stay in memory.
    """
    if not 0.0 <= signal_prob <= 1.0:
        raise ValidationError("signal_prob must lie in [0, 1]")
    if rep_rate_mhz <= 0 or duration_s <= 0 or lifetime_ns <= 0:
        raise ValidationError("rates, lifetime and duration must be positive")
    if background_rate < 0:
        raise ValidationError("background_rate must be >= 0")
    period_ns = 1e3 / rep_rate_mhz
    if lifetime_ns >= period_ns / 5.0:
        raise ValidationError(
            f"lifetime {lifetime_ns} ns too long for the {period_ns:.3g} ns "
            "pulse period (overlap guard: lifetime < period/5)")
    n_events = (rep_rate_mhz * 1e6 + background_rate) * duration_s
    if not n_events <= MAX_STREAM_EVENTS:
        raise ValidationError(
            f"stream would hold {n_events:.3g} pulses and background counts "
            f"(limit {MAX_STREAM_EVENTS})")
    rng = np.random.default_rng(seed)
    n_pulses = int(duration_s * rep_rate_mhz * 1e6)
    sig_times = []
    chunk = 1 << 22
    for start in range(0, n_pulses, chunk):
        m = min(chunk, n_pulses - start)
        hit = np.nonzero(rng.random(m) < signal_prob)[0]
        delays = rng.exponential(lifetime_ns, hit.size)
        sig_times.append((start + hit) * period_ns + delays)
    times_ns = np.concatenate(sig_times) if sig_times else np.empty(0)
    n_bg = rng.poisson(background_rate * duration_s)
    bg = rng.random(n_bg) * duration_s * 1e9
    times_ns = np.sort(np.concatenate([times_ns, bg]))
    ch = rng.integers(0, 2, times_ns.size)
    return PhotonStream(times_ns * 1e3, ch)


def histogram_bins(bin_width_ns: float, window_ns: float,
                   rep_period_ns: float) -> int:
    """Number of histogram bins over [-window, window], after checking the
    arguments of ``g2_histogram``; cheap, so callers can check first."""
    if bin_width_ns <= 0 or window_ns <= 0 or rep_period_ns <= 0:
        raise ValidationError("bin width, window and period must be positive")
    if bin_width_ns > rep_period_ns:
        raise ValidationError("bin_width must not exceed the rep period")
    if window_ns < 5.0 * rep_period_ns:
        raise ValidationError("window must span >= 5 rep periods per side")
    n_bins = np.ceil(2.0 * window_ns / bin_width_ns)
    if not n_bins <= MAX_GRID_POINTS:
        raise ValidationError(f"histogram would have {n_bins:.6g} bins "
                              f"(limit {MAX_GRID_POINTS})")
    return int(n_bins)


def g2_histogram(stream: PhotonStream, bin_width_ns: float, window_ns: float,
                 rep_period_ns: float) -> G2Histogram:
    """Cross-channel coincidence histogram and pulsed g2(0) estimate.

    Peak sums tile the delay axis in rep-period windows centered on the
    pulse delays k*T; only complete side peaks enter the normalization.
    The error combines Poisson counting on the center peak with the
    standard error of the side-peak sums.
    """
    n_bins = histogram_bins(bin_width_ns, window_ns, rep_period_ns)
    t_ns = stream.time_tags * 1e-3
    t0 = t_ns[stream.channel == 0]
    t1 = t_ns[stream.channel == 1]
    if t0.size == 0 or t1.size == 0:
        raise ValidationError("both detector channels must be populated")
    lo = np.searchsorted(t1, t0 - window_ns, side="left")
    hi = np.searchsorted(t1, t0 + window_ns, side="right")
    counts = hi - lo
    if not counts.sum() <= MAX_PAIRS:
        raise ValidationError(f"{counts.sum()} tag pairs in the window "
                              f"(limit {MAX_PAIRS}); the stream is too dense")
    # flat index expansion of every in-window pair
    starts = np.repeat(lo, counts)
    offsets = np.arange(counts.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    taus = t1[starts + offsets] - np.repeat(t0, counts)

    edges = -window_ns + bin_width_ns * np.arange(n_bins + 1)
    hist, _ = np.histogram(taus, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])

    k = np.rint(taus / rep_period_ns).astype(int)
    k_max = int(np.floor(window_ns / rep_period_ns - 0.5))
    peaks = np.bincount(k[np.abs(k) <= k_max] + k_max, minlength=2 * k_max + 1)
    center_sum = int(peaks[k_max])
    side_sums = np.delete(peaks, k_max).astype(float)   # 2 k_max >= 8 peaks
    mean_side = side_sums.mean()
    if mean_side <= 0:
        raise ValidationError("no side-peak coincidences; stream too short")
    g2 = center_sum / mean_side
    se_side = side_sums.std(ddof=1) / np.sqrt(side_sums.size)
    err = np.sqrt(max(center_sum, 1.0) + (g2 * se_side) ** 2) / mean_side
    return G2Histogram(centers, hist, rep_period_ns, float(g2), float(err))


def g2_zero_expected(signal_fraction: float) -> float:
    """Analytic pulsed g2(0) = 1 - rho^2 for emitter fraction rho."""
    if not 0.0 <= signal_fraction <= 1.0:
        raise ValidationError("signal fraction must lie in [0, 1]")
    return 1.0 - signal_fraction ** 2


def background_rate_for_fraction(signal_fraction: float, signal_prob: float,
                                 rep_rate_mhz: float) -> float:
    """Background rate (counts/s) yielding the requested signal fraction."""
    if not 0.0 < signal_fraction <= 1.0:
        raise ValidationError("signal fraction must lie in (0, 1]")
    sig_rate = signal_prob * rep_rate_mhz * 1e6
    return sig_rate * (1.0 - signal_fraction) / signal_fraction
