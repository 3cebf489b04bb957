"""Pulsed single-emitter photon streams and g2(tau) analysis.

The source model: each excitation pulse emits at most one signal photon
(Bernoulli success) with an exponential delay; background is a
homogeneous Poisson process; an ideal 50:50 splitter routes every
detection to one of two channels.  The pulsed g2(0) estimator divides
the center-peak coincidence sum by the mean side-peak sum, the standard
normalization for pulsed antibunching values.

A stream is drawn in time order, a block at a time: emitting pulses are
skip-sampled by geometric gaps, background arrivals are summed
exponential gaps, and each source has its own random generator, so the
tags do not depend on the block size.  g2_histogram counts such a stream
as it is drawn, in offset passes over 2^16-tag blocks, and holds about
two blocks of tags whatever the stream's length; simulate_stream writes
the same blocks into one PhotonStream.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .core import MAX_GRID_POINTS, ValidationError

# pulses plus expected background counts simulate_stream may hold in one
# PhotonStream (13 s at 20 MHz)
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
        # a chunk at a time, so that no mask is as long as the stream
        chunks = range(0, tags.size, _BLOCK_TAGS)
        for lo in chunks:
            t = tags[lo:lo + _BLOCK_TAGS + 1]
            if not np.isfinite(t).all() or np.any(t[1:] < t[:-1]):
                raise ValidationError("time tags must be finite, sorted "
                                      "ascending")
        for lo in chunks:
            c = ch[lo:lo + _BLOCK_TAGS]
            if not np.all((c == 0) | (c == 1)):
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


class _Drawn(NamedTuple):
    """A stream drawn as it is read, once: g2_histogram counts it block by
    block."""

    size: float         # bound on its tag count: 12 sigma over the mean
    blocks: Iterator    # (ps tags, channels) pieces in time order


def _draw_stream(signal_prob: float, background_rate: float,
                 rep_rate_mhz: float, lifetime_ns: float, duration_s: float,
                 seed: int = 0) -> _Drawn:
    """simulate_stream's stream: its arguments checked now, its tags drawn
    when its blocks are read."""
    if not 0.0 <= signal_prob <= 1.0:
        raise ValidationError("signal_prob must lie in [0, 1]")
    if not (rep_rate_mhz > 0 and duration_s > 0 and lifetime_ns > 0):
        raise ValidationError("rates, lifetime and duration must be positive")
    if not 0.0 <= background_rate < np.inf:   # inf: arrivals never advance
        raise ValidationError("background_rate must be finite and >= 0")
    period_ns = 1e3 / rep_rate_mhz
    if lifetime_ns >= period_ns / 5.0:
        raise ValidationError(f"lifetime {lifetime_ns} ns too long for the "
                              f"{period_ns:.3g} ns pulse period (overlap "
                              "guard: lifetime < period/5)")
    # a gap chunk sums _BLOCK_TAGS gaps of at most n_pulses + 1 in int64
    pulses = duration_s * rep_rate_mhz * 1e6
    limit = 2 ** 63 // (_BLOCK_TAGS + 1) - 1
    if not pulses < limit:
        raise ValidationError(f"stream would span {pulses:.3g} pulses "
                              f"(limit {limit:.3g})")
    n_pulses = int(pulses)
    mean = n_pulses * signal_prob + background_rate * duration_s
    return _Drawn(mean + 12.0 * np.sqrt(mean) + 64,
                  _blocks(signal_prob, background_rate, period_ns,
                          lifetime_ns, n_pulses, duration_s * 1e9, seed))


def _blocks(signal_prob, background_rate, period_ns, lifetime_ns, n_pulses,
            end_ns, seed):
    """Yield (ps tags, channels) pieces of the stream in time order.

    Drawn signal tags and background arrivals wait, each in a sorted run,
    until no later draw can precede them: an undrawn signal tag lies at or
    past pulse last + 1, an undrawn arrival at or past the last one drawn.
    """
    gaps, delays, background, channels = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    last = -1 if signal_prob > 0 else n_pulses     # last hit drawn
    prev = 0.0 if background_rate > 0 else np.inf   # last arrival drawn
    sig, bg, ch = np.empty(0), np.empty(0), np.empty(0, np.int8)
    while True:
        sig_at = (last + 1) * period_ns if last < n_pulses - 1 else np.inf
        here = min(sig_at, prev)
        i, k = np.searchsorted(sig, here), np.searchsorted(bg, here)
        if i + k:
            t = np.concatenate((sig[:i], bg[:k]))
            t.sort(kind="stable"); t *= 1e3
            sig, bg = sig[i:], bg[k:]
            # int8 channels come 4 to a draw: chunks of 4n give the same
            # channels, in time order, at any chunk size
            while ch.size < t.size:
                ch = np.concatenate((ch, channels.integers(
                    0, 2, _BLOCK_TAGS, dtype=np.int8)))
            yield t, ch[:t.size]
            ch = ch[t.size:]
        if here == np.inf:
            return
        if sig_at <= prev:
            # hits: last plus gaps, clipped so sums cannot wrap
            g = gaps.geometric(signal_prob, _BLOCK_TAGS)
            np.minimum(g, n_pulses + 1, out=g)
            np.cumsum(g, out=g); g += last
            m = np.searchsorted(g, n_pulses)
            s = g[:m] * period_ns; s += delays.exponential(lifetime_ns, m)
            sig = np.concatenate((sig, s)); sig.sort(kind="stable")
            last = g[-1]
            del g, s      # dead until the next draw: free them now
        else:
            a = background.exponential(1e9 / background_rate, _BLOCK_TAGS)
            a[0] += prev; np.cumsum(a, out=a)
            k = np.searchsorted(a, end_ns)
            bg = np.concatenate((bg, a[:k]))
            prev = a[-1] if k == a.size else np.inf
            del a


def simulate_stream(signal_prob: float, background_rate: float,
                    rep_rate_mhz: float, lifetime_ns: float,
                    duration_s: float, seed: int = 0) -> PhotonStream:
    """Synthesize a time-tagged stream from a pulsed emitter + background.

    signal_prob is the per-pulse detection probability of the emitter
    photon; background_rate is in counts/s.  Deterministic under a fixed
    seed.  The stream's blocks go into one buffer, sized to 12 sigma over
    the mean tag count and grown a chunk at a time past it.
    """
    drawn = _draw_stream(signal_prob, background_rate, rep_rate_mhz,
                         lifetime_ns, duration_s, seed)
    n_events = (rep_rate_mhz * 1e6 + background_rate) * duration_s
    if not n_events <= MAX_STREAM_EVENTS:
        raise ValidationError(f"stream would hold {n_events:.3g} pulses and "
                              f"background counts (limit {MAX_STREAM_EVENTS})")
    tags, n = np.empty(int(drawn.size)), 0
    ch = np.empty(tags.size, dtype=np.int8)
    for t, c in drawn.blocks:
        if n + t.size > tags.size:     # no view of either buffer alive
            tags.resize(n + t.size + _BLOCK_TAGS, refcheck=False)
            ch.resize(tags.size, refcheck=False)
        tags[n:n + t.size], ch[n:n + t.size] = t, c
        n += t.size
    # views: shrinking the buffers would fragment the heap
    return PhotonStream(tags[:n], ch[:n], adopt=True)


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


def _windows(stream, reach):
    """Yield every _BLOCK_TAGS tags of a stream with their successors, up
    to reach tags in all: slices of a PhotonStream, or views of a rolling
    buffer over the pieces of a drawn stream, each valid until the next."""
    if isinstance(stream, PhotonStream):
        tags, ch = stream.time_tags, stream.channel
        for lo in range(0, tags.size, _BLOCK_TAGS):
            yield tags[lo:lo + reach], ch[lo:lo + reach]
        return
    t, c, n = np.empty(0), np.empty(0, np.int8), 0    # n tags held
    for piece_t, piece_c in stream.blocks:
        if n + piece_t.size > t.size:
            t = np.concatenate((t[:n], np.empty(piece_t.size + _BLOCK_TAGS)))
            c = np.concatenate((c[:n], np.empty(t.size - n, np.int8)))
        t[n:n + piece_t.size], c[n:n + piece_t.size] = piece_t, piece_c
        n, lo = n + piece_t.size, 0
        while n - lo >= reach:
            yield t[lo:lo + reach], c[lo:lo + reach]
            lo += _BLOCK_TAGS
        n -= lo        # the rest to the front: a forward, overlapping copy
        t[:n], c[:n] = t[lo:lo + n], c[lo:lo + n]
    for lo in range(0, n, _BLOCK_TAGS):
        yield t[lo:n], c[lo:n]


def g2_histogram(stream: PhotonStream | _Drawn, bin_width_ns: float,
                 window_ns: float, rep_period_ns: float) -> G2Histogram:
    """Cross-channel coincidence histogram and pulsed g2(0) estimate.

    Peak sums tile the delay axis in rep-period windows centered on the
    pulse delays k*T; only complete side peaks enter the normalization.
    The error combines Poisson counting on the center peak with the
    standard error of the side-peak sums.  A stream from _draw_stream is
    drawn here, block by block, as the count reaches it.
    """
    n_bins = histogram_bins(bin_width_ns, window_ns, rep_period_ns)
    size = (stream.time_tags.size if isinstance(stream, PhotonStream)
            else stream.size)
    # pass j pairs every tag with its j-th successor; in a sorted stream
    # the first pass with no pair inside the window ends the count.  A
    # block of tags is counted once its j_max successors have arrived.
    j_max = max(1, int(MAX_PASS_WORK // max(size, 1)))
    edges = -window_ns + bin_width_ns * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    k_max = int(np.floor(window_ns / rep_period_ns - 0.5))
    hist, peaks = np.zeros(n_bins, dtype=int), np.zeros(2 * k_max + 1, int)
    n = ones = 0     # tags, and tags on channel 1
    for t, c in _windows(stream, _BLOCK_TAGS + j_max):
        t = t * 1e-3
        if np.any(t[j_max:] - t[:-j_max] <= window_ns):
            raise ValidationError(f"stream too dense: over {j_max} tags in "
                                  f"one {window_ns:g} ns window")
        n += min(t.size, _BLOCK_TAGS)
        ones += int(np.count_nonzero(c[:_BLOCK_TAGS]))
        taus, held = [], 0
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
    if ones in (0, n):
        raise ValidationError("both detector channels must be populated")
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
