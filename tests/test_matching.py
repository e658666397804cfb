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
    _lsection_polys,
)

FS = 4e9
F0 = 155e6
W0 = 2 * math.pi * F0
# L-sections matching a 10 ohm and a 250 ohm load to 50 ohm at F0.
MATCH_10 = MatchSpec(20 / W0, 0.04 / W0)
MATCH_250 = MatchSpec(100 / W0, 0.008 / W0, L_TOWARD_PORT)


def input_impedance(spec: MatchSpec, z_term: complex, frequency: float) -> complex:
    """Impedance looking into port 1 with z_term on port 2: the circuit
    oracle the analytic section is checked against."""
    w = 2.0 * math.pi * frequency
    zl = 1j * w * spec.series_l
    yc = 1j * w * spec.shunt_c
    if spec.orientation == L_TOWARD_LINE:
        z = zl + z_term
        return 1.0 / (yc + 1.0 / z)
    y = yc + (1.0 / z_term if z_term != 0 else cmath.inf)
    return zl + 1.0 / y


def lsection_sparams(spec: MatchSpec, frequency) -> np.ndarray:
    """Analytic two-port scattering response, shape (..., 2, 2), from the
    section's s-domain polynomials."""
    s = 2j * math.pi * np.asarray(frequency, dtype=np.float64)
    s11, s21, s22, den = (np.polyval(p, s) for p in _lsection_polys(spec))
    return np.stack([np.stack([s11, s21], -1), np.stack([s21, s22], -1)], -2) / den[..., None, None]


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


def test_negative_components_rejected():
    with pytest.raises(ValueError):
        MatchSpec(-1e-9, 1e-12)


class TestAnalyticSection:
    def test_reciprocal_and_consistent_with_impedance(self):
        spec = MATCH_10
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
        spec = MATCH_10
        s = lsection_sparams(spec, np.linspace(50e6, 500e6, 7))
        power = np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2
        np.testing.assert_allclose(power, 1.0, atol=1e-12)

    def test_energy_conservation_across_orientations(self):
        spec = MATCH_250
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
        spec = MATCH_10
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
        spec = MATCH_10
        el = MatchingElement(spec, FS)
        measured = element_sparams(el, [F0])
        analytic = lsection_sparams(spec, F0)
        assert abs(measured[0, 1, 0] - analytic[1, 0]) < 1e-4

    def test_time_invariance(self):
        spec = MATCH_10
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
        spec = MATCH_10
        el = MatchingElement(spec, FS)
        el.step(np.array([1.0, 0.0]))
        tail = [el.step(np.zeros(2)) for _ in range(20000)]
        assert np.max(np.abs(tail[-100:])) < 1e-6
