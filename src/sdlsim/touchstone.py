"""Touchstone version-1 reader and writer for 2-port S-parameter files.

Supports the `# <unit> S <RI|MA|DB> R <z0>` option line, `!` comments, and
`f s11 s21 s12 s22` data rows. Values normalize to Hz and complex
rectangular form on parse; writes round-trip every value to better than
1e-9 relative in all three formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_UNIT_SCALE = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
_FORMATS = ("RI", "MA", "DB")

# Magnitude floor used when writing a zero entry in DB format; 10^(-400/20)
# re-parses as 1e-20, far below round-trip tolerance.
_DB_FLOOR = -400.0


class ParseError(ValueError):
    """Touchstone syntax or semantics violation, carrying a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class TouchstoneData:
    frequencies: np.ndarray
    s: np.ndarray  # (n_freq, 2, 2) complex, s[k][j][i] = S_ji at frequency k
    reference_impedance: float = 50.0
    comments: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.complex128)
        if self.s.shape != (len(self.frequencies), 2, 2):
            raise ValueError("s must have shape (n_freq, 2, 2)")
        if len(self.frequencies) == 0:
            raise ValueError("no frequency points")
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if not (np.all(np.isfinite(self.frequencies)) and np.all(np.isfinite(self.s))):
            raise ValueError("non-finite values")

    def __eq__(self, other: object) -> bool:
        """Equal data: the same frequencies, S values and reference
        impedance. Comments do not count: they describe no element."""
        if not isinstance(other, TouchstoneData):
            return NotImplemented
        return (
            self.reference_impedance == other.reference_impedance
            and np.array_equal(self.frequencies, other.frequencies)
            and np.array_equal(self.s, other.s)
        )


def _parse_option_line(line_no: int, tokens: list[str]) -> tuple[str, str, float]:
    unit, fmt, z0 = "GHZ", "MA", 50.0
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in _UNIT_SCALE:
            unit = tok
        elif tok in _FORMATS:
            fmt = tok
        elif tok == "S":
            pass
        elif tok in ("Y", "Z", "H", "G"):
            raise ParseError(line_no, f"only S-parameter files supported, got {tok}")
        elif tok == "R":
            if i + 1 >= len(tokens):
                raise ParseError(line_no, "R must be followed by an impedance")
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise ParseError(line_no, f"bad impedance {tokens[i + 1]!r}") from None
            i += 1
        else:
            raise ParseError(line_no, f"unknown option token {tok!r}")
        i += 1
    return unit, fmt, z0


def _pair_to_complex(fmt: str, a: float, b: float) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        mag = a
    else:  # DB
        mag = 10.0 ** (a / 20.0)
    ang = math.radians(b)
    return mag * complex(math.cos(ang), math.sin(ang))


def parse_touchstone(text: str) -> TouchstoneData:
    """Parse a version-1 2-port Touchstone file body."""
    unit, fmt, z0 = "GHZ", "MA", 50.0
    saw_options = False
    comments: list[str] = []
    freqs: list[float] = []
    rows: list[list[complex]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if "!" in line:
            comment = line[line.index("!") + 1 :].strip()
            if comment:
                comments.append(comment)
            line = line[: line.index("!")]
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if saw_options:
                raise ParseError(line_no, "multiple option lines")
            unit, fmt, z0 = _parse_option_line(line_no, line[1:].split())
            saw_options = True
            continue
        tokens = line.split()
        if len(tokens) != 9:
            raise ParseError(
                line_no, f"expected 9 values per 2-port data row, got {len(tokens)}"
            )
        try:
            vals = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(line_no, "non-numeric data value") from None
        f_hz = vals[0] * _UNIT_SCALE[unit]
        if freqs and f_hz <= freqs[-1]:
            raise ParseError(line_no, f"frequency {f_hz:g} Hz not ascending")
        # Touchstone 2-port column order is S11 S21 S12 S22.
        s11 = _pair_to_complex(fmt, vals[1], vals[2])
        s21 = _pair_to_complex(fmt, vals[3], vals[4])
        s12 = _pair_to_complex(fmt, vals[5], vals[6])
        s22 = _pair_to_complex(fmt, vals[7], vals[8])
        freqs.append(f_hz)
        rows.append([s11, s12, s21, s22])
    if not rows:
        raise ParseError(len(text.splitlines()) or 1, "no data rows")
    s = np.array(rows, dtype=np.complex128).reshape(-1, 2, 2)
    return TouchstoneData(np.array(freqs), s, z0, comments)


def _complex_to_pair(fmt: str, value: complex) -> tuple[float, float]:
    if fmt == "RI":
        return value.real, value.imag
    mag = abs(value)
    ang = math.degrees(math.atan2(value.imag, value.real))
    if fmt == "MA":
        return mag, ang
    db = 20.0 * math.log10(mag) if mag > 0 else _DB_FLOOR
    return db, ang


def write_touchstone(data: TouchstoneData, unit: str = "HZ", fmt: str = "RI") -> str:
    """Emit a version-1 2-port file; parse(write(x)) matches x to 1e-9."""
    unit = unit.upper()
    fmt = fmt.upper()
    if unit not in _UNIT_SCALE:
        raise ValueError(f"unknown unit {unit!r}")
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"! {c}" for c in data.comments]
    lines.append(f"# {unit} S {fmt} R {data.reference_impedance:.12g}")
    scale = _UNIT_SCALE[unit]
    for k, f_hz in enumerate(data.frequencies):
        cells = [f"{f_hz / scale:.12g}"]
        # Column order S11 S21 S12 S22 mirrors the parser.
        for j, i in ((0, 0), (1, 0), (0, 1), (1, 1)):
            a, b = _complex_to_pair(fmt, complex(data.s[k, j, i]))
            cells.append(f"{a:.12g}")
            cells.append(f"{b:.12g}")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
