"""The delay line's band filter and the L-section biquads, designed and run
in numpy, checked against scipy.signal as an oracle."""

import math
import warnings

import numpy as np
import pytest
import scipy.signal as sig

from sdlsim.elements import (
    BAND_FRAME_LANES,
    MAX_BLOCK,
    DelayLineElement,
    DelayLineSpec,
    _bilinear_biquad,
    _butter_bandpass,
    _section_group_delays,
    _sos_response,
)

FS = 4e9
# (f1, f2, fs): paper.yaml's 30 MHz band, a narrow one, a lower rate, and a
# wide band near Nyquist whose pre-warped edges give a pair of real poles.
BANDS = [(140e6, 170e6, FS), (150e6, 160e6, FS), (20e6, 40e6, 1e9), (0.9e9, 1.9e9, FS)]


def unit_gain(sos: np.ndarray, fc: float, fs: float) -> np.ndarray:
    sos = sos.copy()
    sos[0, :3] /= abs(sig.sosfreqz(sos, worN=[fc], fs=fs)[1][0])
    return sos


@pytest.mark.parametrize("f1,f2,fs", BANDS)
@pytest.mark.parametrize("order", range(1, 9))
def test_band_response_matches_scipy_butter(order, f1, f2, fs):
    fc = 0.5 * (f1 + f2)
    freqs = np.linspace(0.5 * f1, min(1.5 * f2, 0.49 * fs), 301)
    ref = unit_gain(sig.butter(order, [f1, f2], btype="bandpass", fs=fs, output="sos"), fc, fs)
    sos = _butter_bandpass(order, f1, f2, fs)
    sos[0, :3] /= abs(_sos_response(sos, 2 * math.pi * fc / fs))
    h = _sos_response(sos, 2 * math.pi * freqs / fs)
    assert np.max(np.abs(h - sig.sosfreqz(ref, worN=freqs, fs=fs)[1])) <= 1e-12


@pytest.mark.parametrize("f1,f2,fs", BANDS)
@pytest.mark.parametrize("order", range(1, 9))
def test_section_group_delays_match_scipy(order, f1, f2, fs):
    # Refused exactly where scipy warns that a denominator all but vanishes.
    fc = 0.5 * (f1 + f2)
    sos = _butter_bandpass(order, f1, f2, fs)
    sos[0, :3] /= abs(_sos_response(sos, 2 * math.pi * fc / fs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = [sig.group_delay((s[:3], s[3:]), w=[fc], fs=fs)[1][0] for s in sos]
    if caught:
        with pytest.raises(ValueError, match="ill-conditioned"):
            _section_group_delays(sos, 2 * math.pi * fc / fs)
    else:
        np.testing.assert_allclose(_section_group_delays(sos, 2 * math.pi * fc / fs), ref, rtol=1e-12)


def lsection_polynomials(series_l, shunt_c, z0=50.0):
    """S11 (capacitor side), S21 and S22 numerators over the common
    denominator of an L-section, as s polynomials."""
    lc = series_l * shunt_c
    k_sum = series_l / z0 + shunt_c * z0
    k_diff = series_l / z0 - shunt_c * z0
    den = [lc, k_sum, 2.0]
    return [([-lc, k_diff, 0.0], den), ([0.0, 0.0, 2.0], den), ([lc, k_diff, 0.0], den)]


@pytest.mark.parametrize(
    "series_l,shunt_c", [(33e-9, 18e-12), (100e-9, 2e-12), (33e-9, 0.0), (0.0, 18e-12), (1e-6, 1e-9)]
)
def test_lsection_biquads_match_scipy_bilinear(series_l, shunt_c):
    w0 = 2 * math.pi * 155e6
    k = w0 / math.tan(w0 / (2 * FS))
    for num, den in lsection_polynomials(series_l, shunt_c):
        b, a = _bilinear_biquad(num, den, k)
        den_t = list(np.trim_zeros(np.array(den), "f"))
        for got, ref in zip((b, a), sig.bilinear(num[-len(den_t) :], den_t, fs=k / 2)):
            np.testing.assert_allclose(got, np.pad(ref, (0, 3 - len(ref))), rtol=1e-12, atol=1e-15)


def test_vanishing_lsection_refused_where_scipy_trims():
    # 1 H and 1 F: scipy drops the ~1e-20 leading numerator coefficient
    # with BadCoefficients; the numpy transform refuses the section.
    w0 = 2 * math.pi * 155e6
    k = w0 / math.tan(w0 / (2 * FS))
    num, den = lsection_polynomials(1.0, 1.0)[1]
    with pytest.warns(sig.BadCoefficients):
        sig.bilinear(num, den, fs=k / 2)
    with pytest.raises(ValueError, match="L-section response vanishes"):
        _bilinear_biquad(num, den, k)


def through_line(order: int, bandwidth: float) -> DelayLineElement:
    """A lossless banded line without reflection or echoes: port 2 emits
    the band-filtered port-1 wave, compensated_delay_samples later."""
    spec = DelayLineSpec(il_db=0.0, bandwidth=bandwidth, band_order=order, port_return_db=None)
    return DelayLineElement(spec, FS)


# A lane count on each side of the threshold: 64-sample frames on 3 lanes,
# 16-sample ones from BAND_FRAME_LANES lanes up.
LANES = (3, BAND_FRAME_LANES)


def test_frame_length_follows_the_lanes():
    # The lifted matrix is made at the first step, for the frame in use
    # alone, and copies share it.
    line = DelayLineElement(DelayLineSpec(), FS)
    frames = []
    for lanes in LANES:
        line.reset(lanes)
        frames.append(line.band_frame)
    assert frames == [MAX_BLOCK, 16]
    assert not line._lifted
    line.step(np.zeros((2, BAND_FRAME_LANES)))
    assert list(line._lifted) == [16]
    probe = line.zeroed(1)
    probe.step(np.zeros((2, 1)))
    assert probe._lifted is line._lifted and sorted(line._lifted) == [16, MAX_BLOCK]


@pytest.mark.parametrize("order,bandwidth", [(1, 30e6), (2, 30e6), (4, 20e6), (6, 30e6)])
def test_lifted_filter_matches_sosfilt(order, bandwidth):
    line = through_line(order, bandwidth)
    d, n = line.compensated_delay_samples, 1000
    for lanes in LANES:
        x = np.zeros((2, lanes, n + d))
        x[0, :, :n] = np.random.default_rng(order).standard_normal((lanes, n))
        line.reset(lanes)
        # Blocks that start and end inside the fixed frames of either length.
        sizes = [1, 29, MAX_BLOCK, 2 * MAX_BLOCK + 7, 3, n + d]
        starts = np.cumsum([0] + sizes)
        out = np.concatenate([line.step(x[:, :, a:b]) for a, b in zip(starts, starts[1:])], axis=2)
        ref = sig.sosfilt(line.sos, x[0, :, :n])
        assert np.max(np.abs(out[1, :, d : d + n] - ref)) <= 1e-12 * np.max(np.abs(ref)), lanes


@pytest.mark.parametrize("sizes", [[1], [400], [37, 200, 163]], ids=["samples", "block", "split"])
def test_nan_mid_frame_faults_at_its_own_sample(sizes):
    # A banded line with port reflection passes its filter output straight
    # back out of the entry port, so a fault shows there at once. The
    # outputs before it in its lane stay finite, also where they share a
    # frame's product with the NaN: lanes 1 and 2 turn non-finite in the
    # same frame, lane 0 in a later one; the other lanes stay finite.
    line = DelayLineElement(DelayLineSpec(), FS)
    n = 400
    for lanes in LANES:
        line.reset(lanes)
        f = line.band_frame
        faults = {1: (0, 3 * f + f // 2 - 3), 2: (1, 3 * f + 3 * f // 4 + 1), 0: (0, 5 * f + 3)}
        x = np.random.default_rng(9).standard_normal((2, lanes, n))
        for lane, (port, sample) in faults.items():
            x[port, lane, sample] = np.nan
        parts, start, k = [], 0, 0
        while start < n:
            stop = min(n, start + sizes[k % len(sizes)])
            parts.append(line.step(x[:, :, start:stop]))
            start, k = stop, k + 1
        out = np.concatenate(parts, axis=2)
        for lane, (port, sample) in faults.items():
            assert np.isfinite(out[:, lane, :sample]).all(), (lanes, lane)
            assert np.isnan(out[port, lane, sample]), (lanes, lane)
        assert np.isfinite(out[:, 3:]).all()
