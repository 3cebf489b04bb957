import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vibropol import (PhotonStream, ValidationError, photostats,
                      background_rate_for_fraction, g2_histogram,
                      g2_zero_expected, simulate_stream)


def test_background_only_count():
    stream = simulate_stream(0.0, 1e3, 20.0, 2.0, 1.0, seed=1)
    assert abs(stream.time_tags.size - 1000) < 3 * np.sqrt(1000)


def test_pure_signal_one_tag_per_pulse():
    stream = simulate_stream(0.4, 0.0, 20.0, 2.0, 0.01, seed=2)
    period_ps = 50.0 * 1e3
    pulse_idx = np.floor(stream.time_tags / period_ps).astype(int)
    _, counts = np.unique(pulse_idx, return_counts=True)
    assert counts.max() <= 1


def test_stream_determinism():
    a = simulate_stream(0.1, 5e4, 20.0, 2.0, 0.05, seed=9)
    b = simulate_stream(0.1, 5e4, 20.0, 2.0, 0.05, seed=9)
    assert np.array_equal(a.time_tags, b.time_tags)
    assert np.array_equal(a.channel, b.channel)


def test_stream_validation():
    with pytest.raises(ValidationError):
        simulate_stream(1.2, 0.0, 20.0, 2.0, 0.1)
    with pytest.raises(ValidationError):
        simulate_stream(0.1, -1.0, 20.0, 2.0, 0.1)
    with pytest.raises(ValidationError):
        # lifetime over the period/5 overlap guard
        simulate_stream(0.1, 0.0, 20.0, 11.0, 0.1)


def test_stream_cap_counts_the_tags_it_sizes(monkeypatch):
    # 4e8 pulses at p = 1e-3 bound about 4.1e5 tags: built, not refused
    stream = simulate_stream(1e-3, 0.0, 20.0, 2.0, 20.0, seed=3)
    assert abs(stream.time_tags.size - 4e5) < 6 * np.sqrt(4e5)

    def drawn(*args):
        raise AssertionError("a gap was drawn")

    # 2.8e8 tags at p = 1 exceed 2^28: refused before any draw
    monkeypatch.setattr(photostats, "_gaps", drawn)
    with pytest.raises(ValidationError, match=r"stream would hold up to "
                       r"2\.8e\+08 tags \(limit 268435456\)"):
        simulate_stream(1.0, 0.0, 20.0, 2.0, 14.0)


def test_photon_stream_type_validation():
    with pytest.raises(ValidationError):
        PhotonStream(np.array([2.0, 1.0]), np.array([0, 1]))
    with pytest.raises(ValidationError):
        PhotonStream(np.array([1.0, 2.0]), np.array([0, 2]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_photon_stream_rejects_non_finite_tags(bad):
    with pytest.raises(ValidationError, match="finite"):
        PhotonStream(np.array([1.0, bad, 3.0, 4.0]), np.array([0, 1, 0, 1]))
    with pytest.raises(ValidationError, match="finite"):
        PhotonStream(np.array([1.0, 3.0, bad]), np.array([0, 1, 0]))


def test_photon_stream_copies_a_callers_arrays():
    tags, ch = np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0])
    stream = PhotonStream(tags, ch)
    tags[0], ch[0] = 9.0, 1
    assert stream.time_tags[0] == 1.0 and stream.channel[0] == 0
    assert not stream.time_tags.flags.writeable


def test_g2_expected_landmarks():
    assert g2_zero_expected(1.0) == 0.0
    assert g2_zero_expected(0.0) == 1.0
    assert abs(g2_zero_expected(np.sqrt(0.78)) - 0.22) < 1e-12


def test_background_rate_for_fraction():
    rate = background_rate_for_fraction(0.5, 0.1, 20.0)
    assert abs(rate - 2e6) < 1e-6
    sig = 0.1 * 20e6
    rho = 0.943
    rate = background_rate_for_fraction(rho, 0.1, 20.0)
    assert abs(sig / (sig + rate) - rho) < 1e-12


def _run_g2(rho, seed, duration=0.02):
    prob = 0.1 if rho > 0 else 0.0
    bg = (background_rate_for_fraction(rho, 0.1, 20.0) if 0 < rho < 1
          else (2e6 if rho == 0 else 0.0))
    stream = simulate_stream(prob, bg, 20.0, 2.0, duration, seed=seed)
    return g2_histogram(stream, 0.5, 500.0, 50.0).g2_zero


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.883, 0.943, 1.0])
def test_estimator_consistency(rho):
    vals = np.array([_run_g2(rho, seed) for seed in range(200)])
    expected = g2_zero_expected(rho)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - expected) < 2.0 * se + 1e-9


def test_side_peak_flatness():
    stream = simulate_stream(0.3, 0.0, 20.0, 2.0, 0.05, seed=17)
    hist = g2_histogram(stream, 0.5, 500.0, 50.0)
    # rebuild side-peak sums from the histogram itself
    k = np.rint(hist.bin_centers / hist.rep_period).astype(int)
    k_max = int(np.floor(500.0 / 50.0 - 0.5))
    sums = np.array([hist.coincidences[k == kk].sum()
                     for kk in range(-k_max, k_max + 1) if kk != 0],
                    dtype=float)
    chi2 = np.sum((sums - sums.mean()) ** 2 / sums.mean())
    p = stats.chi2.sf(chi2, df=sums.size - 1)
    assert p > 0.01


def test_histogram_count_conservation():
    stream = simulate_stream(0.2, 2e5, 20.0, 2.0, 0.002, seed=4)
    hist = g2_histogram(stream, 0.5, 500.0, 50.0)
    t = stream.time_tags * 1e-3
    t0 = t[stream.channel == 0]
    t1 = t[stream.channel == 1]
    n_pairs = sum(int(np.sum(np.abs(t1 - x) <= 500.0)) for x in t0)
    assert abs(int(hist.coincidences.sum()) - n_pairs) <= 2  # edge ties


def test_g2_histogram_validation():
    stream = simulate_stream(0.2, 1e5, 20.0, 2.0, 0.005, seed=5)
    with pytest.raises(ValidationError):
        g2_histogram(stream, 0.5, 100.0, 50.0)     # window < 5 periods
    with pytest.raises(ValidationError):
        g2_histogram(stream, 60.0, 500.0, 50.0)    # bin wider than period
    single = PhotonStream(np.array([1.0, 2.0]), np.array([0, 0]))
    with pytest.raises(ValidationError):
        g2_histogram(single, 0.5, 500.0, 50.0)
    # one cross-channel pair 1 ns apart: a center peak and no side peak
    pair = PhotonStream(np.array([0.0, 1e3]), np.array([0, 1]))
    with pytest.raises(ValidationError, match="no side-peak coincidences"):
        g2_histogram(pair, 0.5, 500.0, 50.0)


def test_histogram_determinism():
    a = g2_histogram(simulate_stream(0.1, 1e5, 20.0, 2.0, 0.02, seed=3),
                     0.5, 500.0, 50.0)
    b = g2_histogram(simulate_stream(0.1, 1e5, 20.0, 2.0, 0.02, seed=3),
                     0.5, 500.0, 50.0)
    assert np.array_equal(a.coincidences, b.coincidences)
    assert a.g2_zero == b.g2_zero


def _expanded_g2_histogram(stream, bin_width_ns, window_ns, rep_period_ns):
    """The pair-expansion estimator g2_histogram replaced: every in-window
    cross-channel pair from two searchsorted calls and a flat expansion."""
    t_ns = stream.time_tags * 1e-3
    t0 = t_ns[stream.channel == 0]
    t1 = t_ns[stream.channel == 1]
    lo = np.searchsorted(t1, t0 - window_ns, side="left")
    hi = np.searchsorted(t1, t0 + window_ns, side="right")
    counts = hi - lo
    starts = np.repeat(lo, counts)
    offsets = np.arange(counts.sum()) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    taus = t1[starts + offsets] - np.repeat(t0, counts)
    n_bins = int(np.ceil(2.0 * window_ns / bin_width_ns))
    edges = -window_ns + bin_width_ns * np.arange(n_bins + 1)
    hist, _ = np.histogram(taus, bins=edges)
    k = np.rint(taus / rep_period_ns).astype(int)
    k_max = int(np.floor(window_ns / rep_period_ns - 0.5))
    peaks = np.bincount(k[np.abs(k) <= k_max] + k_max, minlength=2 * k_max + 1)
    center_sum = int(peaks[k_max])
    side_sums = np.delete(peaks, k_max).astype(float)
    mean_side = side_sums.mean()
    g2 = center_sum / mean_side
    se_side = side_sums.std(ddof=1) / np.sqrt(side_sums.size)
    err = np.sqrt(max(center_sum, 1.0) + (g2 * se_side) ** 2) / mean_side
    return hist, float(g2), float(err)


def _single_tag_channel():
    stream = simulate_stream(0.1, 2e5, 20.0, 2.0, 0.02, seed=23)
    ch = np.zeros(stream.channel.size, dtype=int)
    ch[ch.size // 2] = 1
    return PhotonStream(stream.time_tags, ch)


def _rho_stream(rho, seed, rep_rate=20.0, duration=0.05):
    bg = background_rate_for_fraction(rho, 0.1, rep_rate)
    return simulate_stream(0.1, bg, rep_rate, 2.0, duration, seed=seed)


@pytest.mark.parametrize("make, bin_width, window, period", [
    (lambda: _rho_stream(0.943, 31), 0.5, 500.0, 50.0),
    (lambda: _rho_stream(0.8, 32), 0.5, 500.0, 50.0),
    (lambda: _rho_stream(0.5, 33), 0.5, 500.0, 50.0),
    (lambda: _rho_stream(0.9, 34, rep_rate=37.0), 0.7, 150.0, 1e3 / 37.0),
    (lambda: simulate_stream(0.0, 2e6, 20.0, 2.0, 0.02, seed=35),
     0.5, 500.0, 50.0),
    (_single_tag_channel, 0.5, 500.0, 50.0),
], ids=["rho0.943", "rho0.8", "rho0.5", "window150", "background",
        "single_tag_channel"])
def test_offset_passes_match_pair_expansion(make, bin_width, window, period):
    stream = make()
    hist = g2_histogram(stream, bin_width, window, period)
    ref_hist, ref_g2, ref_err = _expanded_g2_histogram(stream, bin_width,
                                                       window, period)
    assert hist.coincidences.sum() > 0
    assert np.array_equal(hist.coincidences, ref_hist)
    assert hist.g2_zero == ref_g2 and hist.g2_zero_err == ref_err


def test_emitting_pulses_are_bernoulli():
    p, n_pulses = 0.1, 1_000_000
    stream = simulate_stream(p, 0.0, 20.0, 2.0, n_pulses / 20e6, seed=41)
    pulse = np.floor(stream.time_tags / 50e3).astype(int)
    assert np.all(np.diff(pulse) > 0) and pulse[-1] < n_pulses
    sd = np.sqrt(n_pulses * p * (1 - p))
    assert abs(pulse.size - n_pulses * p) < 4.0 * sd
    # gaps between emitting pulses are geometric(p) on 1, 2, ...; the last
    # class collects the tail
    gaps = np.diff(pulse)
    k = np.arange(1, 41)
    observed = np.append(np.bincount(gaps, minlength=41)[1:41],
                         np.sum(gaps > 40))
    probs = np.append(stats.geom.pmf(k, p), stats.geom.sf(40, p))
    expected = probs * gaps.size
    chi2 = np.sum((observed - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, df=observed.size - 1) > 0.01


def test_dense_stream_is_refused_before_counting():
    # two million tags at one instant: every window holds all of them
    tags = np.zeros(2_000_000)
    ch = np.arange(tags.size) % 2
    with pytest.raises(ValidationError, match="too dense"):
        g2_histogram(PhotonStream(tags, ch), 0.5, 500.0, 50.0)


def test_density_guard_allows_exactly_the_budgeted_passes(monkeypatch):
    stream = _rho_stream(0.8, 42, duration=0.01)
    t = stream.time_tags * 1e-3
    # the count runs to the first offset j with no pair inside the window
    runs = min(j for j in range(1, 64) if not np.any(t[j:] - t[:-j] <= 500.0))
    monkeypatch.setattr(photostats, "MAX_PASS_WORK", runs * t.size)
    ref = g2_histogram(stream, 0.5, 500.0, 50.0)
    assert np.array_equal(ref.coincidences,
                          _expanded_g2_histogram(stream, 0.5, 500.0, 50.0)[0])
    monkeypatch.setattr(photostats, "MAX_PASS_WORK", runs * t.size - 1)
    with pytest.raises(ValidationError, match="too dense"):
        g2_histogram(stream, 0.5, 500.0, 50.0)


# the same cases with blocks of 1000 tags, so that pairs straddle the
# block edges of g2_histogram's offset passes
_PAIR_CASES = test_offset_passes_match_pair_expansion.pytestmark[0]


@pytest.mark.parametrize(*_PAIR_CASES.args, **_PAIR_CASES.kwargs)
def test_offset_passes_match_pair_expansion_across_blocks(
        monkeypatch, make, bin_width, window, period):
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    test_offset_passes_match_pair_expansion(make, bin_width, window, period)


def _edge_stream():
    """Tags in whole ns, 2 us apart in groups of two or four, so that every
    delay is exact: cross-channel pairs at +-window (bin edge and peak
    k_max + 1) and at (k + 1/2) T (rint rounds half to even, 475 ns to
    k_max + 1).  One group in ten holds four tags: about half the tags pair
    at offset 1 and a tenth at offset 2, so each block switches to index
    passes for offset 3, and the stream ends on a group of four."""
    rng = np.random.default_rng(43)
    pairs = np.array([500, 25, 75, 125, 425, 475])
    quads = np.array([[0, 25, 100, 500], [0, 75, 475, 500], [0, 50, 125, 475]])
    groups = []
    for g in range(40_000):
        base = 2000 * g
        if g % 10 == 9:       # groups 9, 19, ..., 39999
            groups.append((base + quads[g % 3], rng.integers(0, 2, 4)))
        else:
            c = rng.integers(0, 2)
            groups.append((base + np.array([0, rng.choice(pairs)]),
                           np.array([c, 1 - c])))
    t_ns = np.concatenate([t for t, _ in groups]).astype(float)
    assert np.array_equal(t_ns * 1e3 * 1e-3, t_ns)   # exact in ps and back
    return PhotonStream(t_ns * 1e3, np.concatenate([c for _, c in groups]))


@pytest.mark.parametrize("block", [2 ** 16, 1000])
def test_offset_passes_match_pair_expansion_on_edges(monkeypatch, block):
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", block)
    test_offset_passes_match_pair_expansion(_edge_stream, 0.5, 500.0, 50.0)


@pytest.mark.parametrize("block", [2 ** 16, 1000])
@pytest.mark.parametrize(*_PAIR_CASES.args, **_PAIR_CASES.kwargs)
def test_drawn_stream_counts_as_its_built_stream(monkeypatch, block, make,
                                                  bin_width, window, period):
    # the stream each case builds, counted again as g2_histogram draws it
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", block)
    calls = []

    def build(*args, **kwargs):
        calls.append((args, kwargs))
        return photostats.simulate_stream(*args, **kwargs)

    monkeypatch.setitem(globals(), "simulate_stream", build)
    make()
    (args, kwargs), = calls
    built = g2_histogram(build(*args, **kwargs), bin_width, window, period)
    drawn = g2_histogram(photostats._draw_stream(*args, **kwargs), bin_width,
                         window, period)
    assert np.array_equal(drawn.coincidences, built.coincidences)
    assert drawn.g2_zero == built.g2_zero
    assert drawn.g2_zero_err == built.g2_zero_err


def test_density_guard_is_exact_across_blocks(monkeypatch):
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    test_density_guard_allows_exactly_the_budgeted_passes(monkeypatch)


@pytest.mark.parametrize("first", [0, 998, 999, 2997])
def test_density_guard_sees_a_cluster_on_a_block_edge(monkeypatch, first):
    # tags 1 us apart but for three within one window from index first; with
    # blocks of 1000 tags the cluster at 998 or 999 straddles a block edge
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    monkeypatch.setattr(photostats, "MAX_PASS_WORK", 2 * 3000)  # j_max = 2
    tags = 1e6 * np.arange(3000.0)
    tags[first + 1:first + 3] = tags[first] + np.array([1e5, 2e5])
    stream = PhotonStream(tags, np.arange(tags.size) % 2)
    with pytest.raises(ValidationError, match="too dense: over 2 tags"):
        g2_histogram(stream, 0.5, 500.0, 50.0)


def _reference_stream(signal_prob, background_rate, rep_rate_mhz,
                      lifetime_ns, duration_s, seed):
    """simulate_stream's stream drawn whole: each source in one call to its
    own generator, the sources joined by one stable sort and the channels
    drawn in one call."""
    gaps, delays, background, channels = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    period_ns = 1e3 / rep_rate_mhz
    n_pulses = int(duration_s * rep_rate_mhz * 1e6)
    hit = np.empty(0, dtype=int)
    if signal_prob > 0:
        # hit k lies at pulse k - 1 or later: n_pulses gaps pass the last
        gap = gaps.geometric(signal_prob, n_pulses)
        hit = np.cumsum(np.minimum(gap, n_pulses + 1)) - 1
        hit = hit[hit < n_pulses]
    sig = hit * period_ns + delays.exponential(lifetime_ns, hit.size)
    bg = np.empty(0)
    if background_rate > 0:
        mu = background_rate * duration_s
        bg = np.cumsum(background.exponential(1e9 / background_rate,
                                              int(mu + 12 * np.sqrt(mu)) + 64))
        assert bg[-1] >= duration_s * 1e9        # drawn past the end
        bg = bg[bg < duration_s * 1e9]
    t_ns = np.sort(np.concatenate([sig, bg]), kind="stable")
    return t_ns * 1e3, channels.integers(0, 2, t_ns.size, dtype=np.int8)


def _digest(tags, ch):
    return (tags.dtype, ch.dtype, tags.size,
            hashlib.sha256(tags.tobytes() + ch.tobytes()).hexdigest())


# sha256(tags + channels)[:16] of three streams, pinned: the same at any
# _BLOCK_TAGS that is a multiple of 4
_PINNED = {(0.1, 3e5, 37.0, 2.0, 0.03, 55): (120202, "58247b6d47a586bf"),
           (0.0, 2e5, 20.0, 2.0, 0.05, 51): (9848, "18da6d510e36c86c"),
           (0.4, 1e5, 20.0, 9.99, 0.05, 54): (404224, "27b0586e8c638673")}


@pytest.mark.parametrize("args", [
    (0.0, 2e5, 20.0, 2.0, 0.05, 51),          # background only
    (1.0, 0.0, 20.0, 2.0, 0.22, 52),          # 4.4e6 hits: 68 gap chunks
    (0.3, 0.0, 20.0, 2.0, 0.05, 53),          # no background
    (0.4, 1e5, 20.0, 9.99, 0.05, 54),         # lifetime just under T/5
    (0.1, 3e5, 37.0, 2.0, 0.03, 55),
    (0.0, 0.0, 20.0, 2.0, 0.01, 56),          # empty stream
], ids=["p0", "p1_two_blocks", "no_background", "long_lifetime", "rho",
        "empty"])
def test_in_place_build_is_bit_identical(args):
    # one stream at a time: the reference peaks at several times its output
    reference = _digest(*_reference_stream(*args))
    stream = simulate_stream(*args[:5], seed=args[5])
    digest = _digest(stream.time_tags, stream.channel)
    assert digest == reference
    if args in _PINNED:
        assert (digest[2], digest[3][:16]) == _PINNED[args]


@pytest.mark.parametrize("p", [1e-300, 1e-9, 0.01, 0.1,
                               np.nextafter(1 / 3, 0)])
def test_gaps_below_a_third_are_numpys_geometric(p):
    # numpy's own inversion, vectorised: the same gaps after the clip, and
    # the generator left in the same state
    cap = 10 ** 12
    numpy_gen, gen = np.random.default_rng(44), np.random.default_rng(44)
    expected = np.minimum(numpy_gen.geometric(p, 5000), cap)
    gaps = photostats._gaps(gen, p, cap, np.empty(5000))
    assert gaps.dtype == np.int64 and np.array_equal(gaps, expected)
    assert gen.bit_generator.state == numpy_gen.bit_generator.state
    assert np.all(gaps == cap) == (p == 1e-300)


def _traced_peak(fn, *args):
    """(result, peak bytes that fn allocated through numpy or Python)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_g2_memory_is_the_stream_plus_a_fixed_block():
    peaks = []
    for duration in (0.2, 0.8):
        stream, build_peak = _traced_peak(_rho_stream, 0.943, 61, 20.0,
                                          duration)
        stream_bytes = stream.time_tags.nbytes + stream.channel.nbytes
        # the in-place build peaks near 2x the stream it returns
        assert build_peak <= 3.0 * stream_bytes
        peaks.append(_traced_peak(g2_histogram, stream, 0.5, 500.0, 50.0)[1])
    # 4x the tags add 11.5 MB to the stream; the count's working set stays
    assert peaks[1] <= peaks[0] + 2e6


# the same builds in chunks of 1000 tags, so that gap batches, delay chunks
# and the background straddle the chunk edges of simulate_stream's draws
_BUILD_CASES = test_in_place_build_is_bit_identical.pytestmark[0]


@pytest.mark.parametrize(*_BUILD_CASES.args, **_BUILD_CASES.kwargs)
def test_in_place_build_is_bit_identical_across_chunks(monkeypatch, args):
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    test_in_place_build_is_bit_identical(args)


@pytest.mark.parametrize("args", [
    # 50 arrivals in 0.05 s, from one chunk of 1000 that spans about 1 s,
    # wait across the 200 chunks of 1000 signal hits
    (0.2, 1e3, 20.0, 2.0, 0.05, 57),
    # 400 hits in 0.01 s, from one chunk of 1000 that spans about 25 ms,
    # wait across the 100 chunks of 1000 background arrivals
    (0.002, 1e7, 20.0, 2.0, 0.01, 58),
], ids=["background_spans_signal", "signal_spans_background"])
def test_a_chunk_of_one_source_is_carried_across_the_other(monkeypatch, args):
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    tags, ch = _reference_stream(*args)
    assert tags.size > 90_000
    stream = simulate_stream(*args[:5], seed=args[5])
    assert _digest(stream.time_tags, stream.channel) == _digest(tags, ch)


def test_the_buffer_grows_a_chunk_at_a_time_past_its_bound(monkeypatch):
    # a bound of 64 tags for a stream of about 41000: every growth adds the
    # piece and one chunk, so at most one chunk of slots lies past the tags
    monkeypatch.setattr(photostats, "_BLOCK_TAGS", 1000)
    args = (0.2, 1e5, 20.0, 2.0, 0.01)
    expected = _digest(*_reference_stream(*args, 57))
    draw = photostats._draw_stream
    monkeypatch.setattr(photostats, "_draw_stream", lambda *a: (
        photostats._Drawn(64, draw(*a).blocks)))
    stream = simulate_stream(*args, seed=57)
    tags = stream.time_tags
    assert _digest(tags, stream.channel) == expected
    assert tags.size > 40_000
    assert tags.base.size - tags.size <= 1000


def test_build_and_count_peak_near_the_stream():
    fixed = []
    for duration in (0.2, 0.8):
        stream, build_peak = _traced_peak(_rho_stream, 0.943, 61, 20.0,
                                          duration)
        stream_bytes = stream.time_tags.nbytes + stream.channel.nbytes
        # one buffer of tags and channels, plus the chunks being drawn
        fixed.append(build_peak - stream_bytes)
        # a block of 2^16 tags and at most about 2^17 delays to bin
        count_peak = _traced_peak(g2_histogram, stream, 0.5, 500.0, 50.0)[1]
        assert count_peak <= 3e6
    # 4x the tags leave the part past the stream as it was
    assert abs(fixed[1] - fixed[0]) <= 0.5e6


def _drawn_g2(duration):
    bg = background_rate_for_fraction(0.943, 0.1, 20.0)
    stream = photostats._draw_stream(0.1, bg, 20.0, 2.0, duration, seed=62)
    return g2_histogram(stream, 0.5, 500.0, 50.0)


def test_a_drawn_stream_is_counted_in_a_fixed_working_set():
    # 4x the tags (2.1e6 to 8.5e6) and no more memory: the stream is never
    # held, only a block of tags with its successors and the chunks drawn
    peaks = [_traced_peak(_drawn_g2, duration)[1] for duration in (0.5, 2.0)]
    assert peaks[1] <= peaks[0] + 1e6
