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
tags do not depend on the block size.  Below p = 1/3 the gaps are numpy's
own inversion of a standard exponential, vectorised to the same bits.
g2_histogram counts such a stream as it is drawn, in offset passes over
2^16-tag blocks, and holds about two blocks of tags whatever the
stream's length; simulate_stream writes the same blocks into one
PhotonStream.  A block's passes slice it whole until fewer than
_INDEX_FRACTION of its tags pair, then gather the tags that still do.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .core import MAX_GRID_POINTS, ValidationError, _check_seed

# tag bound simulate_stream may size one PhotonStream to (13 s at 20 MHz
# and p = 1)
MAX_STREAM_EVENTS = 2 ** 28
# tag comparisons g2_histogram may make: offset passes times tags
MAX_PASS_WORK = 2 ** 30
_BLOCK_TAGS = 2 ** 16     # tags per draw chunk and per g2_histogram block
# g2_histogram's passes gather a block's pairing tags once fewer than
# this fraction pair: a gather of a fraction f costs about 3f of a slice
_INDEX_FRACTION = 1 / 4


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
    span_ps: float = np.inf   # bound on its tags in ps; inf is not counted


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
    _check_seed(seed)
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
                          lifetime_ns, n_pulses, duration_s * 1e9, seed),
                  duration_s * 1e12)


def _gaps(gen, p, cap, out):
    """gen.geometric(p, out.size) clipped at cap, in int64; out is scratch.

    For p < 1/3 numpy draws each gap as ceil(E / -log1p(-p)) from one
    standard exponential E; the same draw vectorised gives the same gaps
    and leaves gen as geometric would.  Larger p keeps numpy's search.
    """
    if p >= 1 / 3:
        return np.minimum(gen.geometric(p, out.size), cap)
    gen.standard_exponential(out=out)
    out /= -math.log1p(-p)
    np.ceil(out, out=out)
    return np.minimum(out, cap, out=out).astype(np.int64)


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
    # standard exponentials, scaled in place in one buffer drawn into again
    # (exponential(scale, m) is scale times the same draws)
    e = np.empty(_BLOCK_TAGS)
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
            g = _gaps(gaps, signal_prob, n_pulses + 1, e)
            np.cumsum(g, out=g); g += last
            m = np.searchsorted(g, n_pulses)
            s = delays.standard_exponential(out=e[:m]); s *= lifetime_ns
            s += g[:m] * period_ns
            sig = np.concatenate((sig, s))
            if np.any(sig[1:] < sig[:-1]):    # a zero gap: two hits on a pulse
                sig.sort(kind="stable")
            last = g[-1]
            del g         # dead until the next draw: free it now
        else:
            a = background.standard_exponential(out=e)
            a *= 1e9 / background_rate
            a[0] += prev; np.cumsum(a, out=a)
            k = np.searchsorted(a, end_ns)
            bg = np.concatenate((bg, a[:k]))
            prev = a[-1] if k == a.size else np.inf


def simulate_stream(signal_prob: float, background_rate: float,
                    rep_rate_mhz: float, lifetime_ns: float,
                    duration_s: float, seed: int = 0) -> PhotonStream:
    """Synthesize a time-tagged stream from a pulsed emitter + background.

    signal_prob is the per-pulse detection probability of the emitter
    photon; background_rate is in counts/s.  Deterministic under a fixed
    seed.  The stream's blocks go into one buffer, sized to 12 sigma over
    the mean tag count and grown a chunk at a time past it; a stream
    whose buffer would exceed MAX_STREAM_EVENTS tags is refused before
    any draw.
    """
    drawn = _draw_stream(signal_prob, background_rate, rep_rate_mhz,
                         lifetime_ns, duration_s, seed)
    if not drawn.size <= MAX_STREAM_EVENTS:
        raise ValidationError(f"stream would hold up to {drawn.size:.3g} "
                              f"tags (limit {MAX_STREAM_EVENTS})")
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

    A block is counted in offset passes: slices of the whole block until
    fewer than _INDEX_FRACTION of its tags have a partner in the window,
    then gathers of the tags that still do.  Float64 tags of t ps lie
    np.spacing(t) apart, so a stream is refused, before any count, when
    that spacing at its last tag (its duration, if drawn) exceeds 1/64 of
    a bin: rounding then moves no delay by more than about 1/64 of a bin.
    """
    n_bins = histogram_bins(bin_width_ns, window_ns, rep_period_ns)
    if isinstance(stream, PhotonStream):
        tags = stream.time_tags
        size, span = tags.size, abs(tags[[0, -1]]).max() if tags.size else 0.0
    else:
        size, span = stream.size, stream.span_ps
    if not np.spacing(span) <= bin_width_ns * 1e3 / 64:    # NaN at inf
        raise ValidationError(f"time tags up to {span:.3g} ps lie "
                              f"{np.spacing(span):g} ps apart, over 1/64 of "
                              f"the {bin_width_ns:g} ns bin")
    # pass j pairs every tag with its j-th successor; in a sorted stream
    # the first pass with no pair inside the window ends the count.  A
    # block of tags is counted once its j_max successors have arrived.
    j_max = max(1, int(MAX_PASS_WORK // max(size, 1)))
    edges = -window_ns + bin_width_ns * np.arange(n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    k_max = int(np.floor(window_ns / rep_period_ns - 0.5))
    # |tau| <= window puts k = rint(tau / T) within k_max + 1 of 0: peaks
    # k_max + 1 away fill the two outer slots, which no peak sum reads
    hist, slots = np.zeros(n_bins, dtype=int), np.zeros(2 * k_max + 3, int)
    taus, held = [], 0   # delays not yet binned, binned 2^16 or more at once

    def bin_taus():
        tau = np.concatenate(taus); taus.clear()
        np.add(hist, np.histogram(tau, bins=edges)[0], out=hist)
        k = np.divide(tau, rep_period_ns, out=tau)
        k = np.rint(k, out=k).astype(int); k += k_max + 1
        np.add(slots, np.bincount(k, minlength=slots.size), out=slots)

    n = ones = 0     # tags, and tags on channel 1
    for t, c in _windows(stream, _BLOCK_TAGS + j_max):
        t = t * 1e-3
        if np.any(t[j_max:] - t[:-j_max] <= window_ns):
            raise ValidationError(f"stream too dense: over {j_max} tags in "
                                  f"one {window_ns:g} ns window")
        n += min(t.size, _BLOCK_TAGS)
        ones += int(np.count_nonzero(c[:_BLOCK_TAGS]))
        # a tag with no partner at offset j has none past it: once few
        # still pair, the passes gather those tags (live) in place of
        # slicing the whole block
        live = None
        for j in range(1, t.size):
            if live is None:
                e = min(_BLOCK_TAGS, t.size - j)   # pairs (i, i + j)
                d, c0, c1 = t[j:j + e] - t[:e], c[:e], c[j:j + e]
            else:
                # the stream's last tags have fewer than j successors
                live = live[:np.searchsorted(live, t.size - j)]
                after = live + j
                d, c0, c1 = t[after] - t[live], c[live], c[after]
            near = d <= window_ns
            i = np.flatnonzero(near & (c0 != c1))
            tau = d[i]; tau *= 1 - 2 * c0[i]     # t1 - t0
            taus.append(tau); held += tau.size
            if held >= _BLOCK_TAGS:    # np.histogram costs per call
                bin_taus(); held = 0
            pairing = np.count_nonzero(near)
            if not pairing:
                break
            if live is not None:
                live = live[near]
            elif pairing < _INDEX_FRACTION * e:
                live = np.flatnonzero(near)
    if taus:
        bin_taus()
    peaks = slots[1:-1]
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
