"""Pulsed single-emitter photon streams and g2(tau) analysis.

The source model: each excitation pulse emits at most one signal photon
(Bernoulli success) with an exponential delay; background is a
homogeneous Poisson process; an ideal 50:50 splitter routes every
detection to one of two channels.  The pulsed g2(0) estimator divides
the center-peak coincidence sum by the mean side-peak sum, the standard
normalization for pulsed antibunching values.  Pulses are skip-sampled,
the stream is drawn in 2^16-tag chunks into one buffer (peak: 1.26x the
stream) and counted in offset passes over 2^16-tag blocks (plus 2.6 MB).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .core import MAX_GRID_POINTS, ValidationError

# most pulses plus expected background counts in one stream (13 s at 20 MHz)
MAX_STREAM_EVENTS = 2 ** 28
# tag comparisons g2_histogram may make: offset passes times tags
MAX_PASS_WORK = 2 ** 30
_BLOCK_TAGS = 2 ** 16     # tags per draw chunk and per g2_histogram block


@dataclass(frozen=True)
class PhotonStream:
    """Time-tagged detections: picosecond tags plus detector channel."""

    time_tags: np.ndarray     # ps, finite, sorted ascending
    channel: np.ndarray       # 0 or 1
    adopt: InitVar[bool] = False   # keep, not copy, the arrays (internal)

    def __post_init__(self, adopt):
        tags = np.asarray(self.time_tags, dtype=float)
        ch = np.asarray(self.channel)
        if tags.shape != ch.shape or tags.ndim != 1:
            raise ValidationError("tags and channels must be equal 1-D arrays")
        if not np.isfinite(tags).all() or np.any(tags[1:] < tags[:-1]):
            raise ValidationError("time tags must be finite, sorted ascending")
        if not np.all((ch == 0) | (ch == 1)):
            raise ValidationError("channels must be 0 or 1")
        if not adopt:
            tags, ch = tags.copy(), ch.astype(np.int8)
        tags.setflags(write=False); ch.setflags(write=False)
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
    seed.  The gaps between emitting pulses are geometric variates.  Tags
    go straight into one buffer, gaps and delays in _BLOCK_TAGS chunks.
    """
    if not 0.0 <= signal_prob <= 1.0:
        raise ValidationError("signal_prob must lie in [0, 1]")
    if rep_rate_mhz <= 0 or duration_s <= 0 or lifetime_ns <= 0:
        raise ValidationError("rates, lifetime and duration must be positive")
    if background_rate < 0:
        raise ValidationError("background_rate must be >= 0")
    period_ns = 1e3 / rep_rate_mhz
    if lifetime_ns >= period_ns / 5.0:
        raise ValidationError(f"lifetime {lifetime_ns} ns too long for the "
                              f"{period_ns:.3g} ns pulse period (overlap "
                              "guard: lifetime < period/5)")
    n_events = (rep_rate_mhz * 1e6 + background_rate) * duration_s
    if not n_events <= MAX_STREAM_EVENTS:
        raise ValidationError(f"stream would hold {n_events:.3g} pulses and "
                              f"background counts (limit {MAX_STREAM_EVENTS})")
    rng = np.random.default_rng(seed)
    n_pulses = int(duration_s * rep_rate_mhz * 1e6)
    mu = background_rate * duration_s
    block = min(1 << 22, int(n_pulses * signal_prob * 1.01) + 1024)
    # one buffer for every tag, sized to a gap batch's hits plus a 12-sigma
    # bound on the background count; a later batch grows it chunk by chunk
    spare = int(mu + 12.0 * np.sqrt(mu)) + 64
    buf, n, last = np.empty(block + spare), 0, -1    # n tags, last hit
    # hits: -1 plus gaps, clipped so sums cannot wrap; batches drawn whole
    while signal_prob > 0 and last < n_pulses - 1:
        for lo in range(0, block, _BLOCK_TAGS):
            gaps = rng.geometric(signal_prob, min(_BLOCK_TAGS, block - lo))
            if n + gaps.size + spare > buf.size:    # no view of buf alive
                buf.resize(n + gaps.size + spare, refcheck=False)
            np.minimum(gaps, n_pulses + 1, out=gaps)
            np.cumsum(gaps, out=gaps); gaps += last
            m = np.searchsorted(gaps, n_pulses)
            np.multiply(gaps[:m], period_ns, out=buf[n:n + m])
            n, last = n + m, gaps[-1]
    for lo in range(0, n, _BLOCK_TAGS):    # emission delays
        k = min(_BLOCK_TAGS, n - lo)
        buf[lo:lo + k] += rng.exponential(lifetime_ns, k)
    n_bg = rng.poisson(mu)
    if n + n_bg > buf.size:
        buf.resize(n + n_bg, refcheck=False)
    bg = rng.random(out=buf[n:n + n_bg])
    bg.sort(); bg *= duration_s; bg *= 1e9
    t = buf[:n + n_bg]      # a view: shrinking buf would fragment the heap
    # the stable sort merges the two (nearly) sorted runs in O(n)
    t.sort(kind="stable"); t *= 1e3
    ch = rng.integers(0, 2, t.size, dtype=np.int8)
    return PhotonStream(t, ch, adopt=True)


def histogram_bins(bin_width_ns: float, window_ns: float,
                   rep_period_ns: float) -> int:
    """Bin count over [-window, window]; checks g2_histogram's arguments."""
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
    tags, ch = stream.time_tags, stream.channel
    if ch.all() or not ch.any():
        raise ValidationError("both detector channels must be populated")
    # pass j pairs every tag with its j-th successor; in a sorted stream
    # the first pass with no pair inside the window ends the count.  The
    # block of tags [lo, lo + B) reads its successors up to lo + B + j_max.
    j_max = max(1, MAX_PASS_WORK // tags.size)
    starts, reach = range(0, tags.size, _BLOCK_TAGS), _BLOCK_TAGS + j_max
    for lo in starts:
        t = tags[lo:lo + reach] * 1e-3
        if np.any(t[j_max:] - t[:-j_max] <= window_ns):
            raise ValidationError(f"stream too dense: over {j_max} tags in "
                                  f"one {window_ns:g} ns window")
    edges = -window_ns + bin_width_ns * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    k_max = int(np.floor(window_ns / rep_period_ns - 0.5))
    hist, peaks = np.zeros(n_bins, dtype=int), np.zeros(2 * k_max + 1, int)
    for lo in starts:
        t, c, taus, held = tags[lo:lo + reach] * 1e-3, ch[lo:lo + reach], [], 0
        for j in range(1, t.size):
            e = min(_BLOCK_TAGS, t.size - j)   # pairs (i, i + j), i in block
            d = t[j:j + e] - t[:e]
            near = d <= window_ns
            i = np.flatnonzero(near & (c[j:j + e] != c[:e]))
            taus.append(np.where(c[i], -d[i], d[i]))     # t1 - t0
            held, done = held + i.size, j == t.size - 1 or not near.any()
            if done or held >= _BLOCK_TAGS:   # np.histogram costs per call
                tau, taus, held = np.concatenate(taus), [], 0
                hist += np.histogram(tau, bins=edges)[0]
                k = np.rint(tau / rep_period_ns).astype(int)
                peaks += np.bincount(k[abs(k) <= k_max] + k_max,
                                     minlength=peaks.size)
            if done:
                break
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
