import cmath
import math

import numpy as np
import pytest
from conftest import phasor

from sdlsim.elements import (
    L_TOWARD_LINE,
    L_TOWARD_PORT,
    MatchingElement,
    MatchSpec,
    input_impedance,
    lsection_sparams,
    synth_lmatch,
)

FS = 4e9
F0 = 155e6
W0 = 2 * math.pi * F0


def element_sparams(element, freqs, settle=4000, measure=4096):
    """Measured frequency response of a discrete two-port, one lane per freq."""
    freqs = np.asarray(freqs, dtype=float)
    n = settle + measure
    result = np.empty((len(freqs), 2, 2), dtype=complex)
    for drive in (0, 1):
        element.reset(lanes=len(freqs))
        inc = np.zeros((2, len(freqs)))
        outs = np.empty((n, 2, len(freqs)))
        for i in range(n):
            inc[drive] = np.cos(2 * math.pi * freqs / FS * i)
            inc[1 - drive] = 0.0
            outs[i] = element.step(inc)
        for k, f in enumerate(freqs):
            for port in (0, 1):
                result[k, port, drive] = phasor(outs[:, port, k], f, FS, start=settle)
    return result


class TestSynthesis:
    def test_low_resistive_load(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        assert spec.orientation == L_TOWARD_LINE
        assert spec.series_l == pytest.approx(20.0 / W0, rel=1e-12)
        assert spec.shunt_c == pytest.approx(0.04 / W0, rel=1e-12)
        assert spec.series_l == pytest.approx(20.5e-9, rel=5e-3)
        assert spec.shunt_c == pytest.approx(41.1e-12, rel=5e-3)
        zin = input_impedance(spec, 10.0, F0)
        assert abs(zin - 50.0) < 0.05

    def test_high_resistive_load(self):
        spec = synth_lmatch(250.0, 50.0, F0)
        assert spec.orientation == L_TOWARD_PORT
        assert spec.series_l == pytest.approx(100.0 / W0, rel=1e-12)
        zin = input_impedance(spec, 250.0, F0)
        assert abs(zin - 50.0) < 1e-9

    @pytest.mark.parametrize(
        "z", [10 - 5j, 30 + 12j, 100 + 100j, 250 - 60j, 50 + 0.5j, 10 + 30j, 10 - 100j]
    )
    def test_complex_loads_match(self, z):
        spec = synth_lmatch(z, 50.0, F0)
        zin = input_impedance(spec, z, F0)
        assert abs(zin - 50.0) < 1e-6

    def test_already_matched_gives_empty_ladder(self):
        spec = synth_lmatch(50.0, 50.0, F0)
        assert spec.series_l == 0.0
        assert spec.shunt_c == 0.0
        assert input_impedance(spec, 50.0, F0) == pytest.approx(50.0)

    def test_nonpositive_real_rejected(self):
        with pytest.raises(ValueError, match="positive real"):
            synth_lmatch(-5.0, 50.0, F0)
        with pytest.raises(ValueError, match="positive real"):
            synth_lmatch(25j, 50.0, F0)

    def test_inductive_low_r_load_uses_mirrored_section(self):
        spec = synth_lmatch(10 + 30j, 50.0, F0)
        assert spec.orientation == L_TOWARD_PORT

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            MatchSpec(-1e-9, 1e-12)


class TestAnalyticSection:
    def test_reciprocal_and_consistent_with_impedance(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        s = lsection_sparams(spec, F0)
        assert s[0, 1] == pytest.approx(s[1, 0], rel=1e-12)
        # Port-1 reflection equals the impedance-oracle reflection.
        zin = input_impedance(spec, 50.0, F0)
        gamma = (zin - 50.0) / (zin + 50.0)
        assert s[0, 0] == pytest.approx(gamma, abs=1e-12)

    def test_reflection_from_terminated_section(self):
        # Component values rounded to catalog precision still match well.
        spec = MatchSpec(20.5e-9, 41.1e-12)
        s = lsection_sparams(spec, F0)
        gl = (10.0 - 50.0) / (10.0 + 50.0)
        gin = s[0, 0] + s[0, 1] * s[1, 0] * gl / (1.0 - s[1, 1] * gl)
        assert 20 * math.log10(abs(gin)) <= -30.0

    def test_identity_section(self):
        spec = MatchSpec(0.0, 0.0)
        s = lsection_sparams(spec, np.array([1e6, F0, 1e9]))
        np.testing.assert_allclose(s[:, 0, 1], 1.0)
        np.testing.assert_allclose(s[:, 0, 0], 0.0)

    def test_lossless(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        s = lsection_sparams(spec, np.linspace(50e6, 500e6, 7))
        power = np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2
        np.testing.assert_allclose(power, 1.0, atol=1e-12)

    def test_energy_conservation_across_orientations(self):
        spec = synth_lmatch(250.0, 50.0, F0)
        s = lsection_sparams(spec, 130e6)
        assert abs(s[0, 0]) ** 2 + abs(s[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestMatchingElement:
    def test_identity_element(self):
        el = MatchingElement(MatchSpec(0.0, 0.0), FS)
        x = np.zeros(50)
        x[3] = 1.0
        outs = np.array([el.step(np.array([xi, 0.0])) for xi in x])
        np.testing.assert_array_equal(outs[:, 1], x)
        np.testing.assert_array_equal(outs[:, 0], 0.0)

    def test_matches_analytic_response_within_band(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        freqs = np.linspace(125e6, 185e6, 20)
        el = MatchingElement(spec, FS)
        measured = element_sparams(el, freqs)
        analytic = lsection_sparams(spec, freqs)
        for k in range(len(freqs)):
            for j in range(2):
                for i in range(2):
                    m, a = measured[k, j, i], analytic[k, j, i]
                    if abs(a) < 0.05:
                        assert abs(m - a) < 0.005
                        continue
                    ddb = 20 * math.log10(abs(m) / abs(a))
                    dph = math.degrees(cmath.phase(m / a))
                    assert abs(ddb) < 0.1, (freqs[k], j, i)
                    assert abs(dph) < 1.0, (freqs[k], j, i)

    def test_exact_at_prewarp_frequency(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        el = MatchingElement(spec, FS)
        measured = element_sparams(el, [F0])
        analytic = lsection_sparams(spec, F0)
        assert abs(measured[0, 1, 0] - analytic[1, 0]) < 1e-4

    def test_time_invariance(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        el = MatchingElement(spec, FS)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(400)
        n = 1200
        base = np.empty((n, 2))
        for i in range(n):
            xi = x[i] if i < len(x) else 0.0
            base[i] = el.step(np.array([xi, 0.0]))
        el.reset()
        shift = 29
        shifted = np.empty((n, 2))
        for i in range(n):
            xi = x[i - shift] if 0 <= i - shift < len(x) else 0.0
            shifted[i] = el.step(np.array([xi, 0.0]))
        np.testing.assert_array_equal(shifted[shift:], base[: n - shift])

    def test_stability(self):
        spec = synth_lmatch(10.0, 50.0, F0)
        el = MatchingElement(spec, FS)
        el.step(np.array([1.0, 0.0]))
        tail = [el.step(np.zeros(2)) for _ in range(20000)]
        assert np.max(np.abs(tail[-100:])) < 1e-6
