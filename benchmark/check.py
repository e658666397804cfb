"""Artifact check: compare a command's output files with stored references.

References are the files the seed code wrote for each workload, stored
gzipped under reference/<workload>/ (reference/measured-modsweep/v<k>/ for
the generated variants). The rules:

- the set of written files equals the reference set;
- comment lines and CSV header lines match exactly, except that a comment
  carrying a measured level (`# il_db 5.69`) is checked like a data level;
- every S entry, spectral line, modsweep level and `run` wave agrees within
  TOL in linear amplitude normalised to the drive (dB values are converted
  to amplitude first); frequencies and times agree within TOL relative;
- SVG files (presentation only) keep their comment lines and polyline count.

`python3 benchmark/check.py` runs the self-test: every reference passes
against itself, and a perturbation of PERTURB in any single checked value
makes the check fail.
"""

from __future__ import annotations

import gzip
import math
import sys
from pathlib import Path

TOL = 1e-9
PERTURB = 1e-6
DRIVE_DBM = -10.0  # drive level of every workload config
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def dbm_to_amplitude(dbm: float) -> float:
    """Peak root-watt amplitude of a tone of `dbm` (50-ohm wave units)."""
    return math.sqrt(2e-3 * 10.0 ** (dbm / 10.0))


def _column_kind(name: str) -> str:
    """How a CSV column or `key,value` key is compared."""
    if name.endswith("_dbm"):
        return "dbm"
    if name.endswith("_db"):
        return "db"
    if name.endswith(("_re", "_im")):
        return "s"
    if name.endswith(("_in", "_out")):
        return "wave"
    return "rel"


def _amplitude(kind: str, text: str, drive_amp: float) -> float:
    x = float(text)
    if kind == "dbm":
        return dbm_to_amplitude(x) / drive_amp
    if kind == "db":
        return 10.0 ** (-x / 20.0)
    if kind == "wave":
        return x / drive_amp
    return x


def _agree(kind: str, got: str, ref: str, drive_amp: float) -> bool:
    if kind == "exact":
        return got == ref
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return got == ref
    if g == r:
        return True
    if not (math.isfinite(g) and math.isfinite(r)):
        return False
    if kind == "rel":
        return abs(g - r) <= TOL * max(abs(r), 1e-300)
    return abs(_amplitude(kind, got, drive_amp) - _amplitude(kind, ref, drive_amp)) <= TOL


def _compare_comment(got: str, ref: str, drive_amp: float) -> bool:
    parts, ref_parts = got[2:].split(" "), ref[2:].split(" ")
    if len(parts) == len(ref_parts) == 2 and parts[0] == ref_parts[0]:
        kind = _column_kind(parts[0])
        if kind in ("db", "dbm"):
            return _agree(kind, parts[1], ref_parts[1], drive_amp)
    return got == ref


def compare_csv(got_text: str, ref_text: str, drive_amp: float) -> list[str]:
    got, ref = got_text.splitlines(), ref_text.splitlines()
    if len(got) != len(ref):
        return [f"{len(got)} lines, reference has {len(ref)}"]
    problems = []
    header = None
    for no, (g, r) in enumerate(zip(got, ref), start=1):
        if r.startswith("#"):
            if not _compare_comment(g, r, drive_amp):
                problems.append(f"line {no}: comment {g!r} != {r!r}")
            continue
        if header is None:
            header = r.split(",")
            if g != r:
                problems.append(f"line {no}: header {g!r} != {r!r}")
            continue
        gc, rc = g.split(","), r.split(",")
        if len(gc) != len(rc):
            problems.append(f"line {no}: {len(gc)} fields, reference has {len(rc)}")
            continue
        if header == ["key", "value"]:
            kinds = ["exact", _column_kind(rc[0]) if rc[0] != "flag" else "exact"]
        else:
            kinds = [_column_kind(h) for h in header]
        for col, (kind, gv, rv) in enumerate(zip(kinds, gc, rc)):
            if not _agree(kind, gv, rv, drive_amp):
                problems.append(f"line {no} column {col + 1}: {gv} != {rv} ({kind})")
    return problems[:5]


def compare_svg(got_text: str, ref_text: str) -> list[str]:
    def digest(text):
        lines = text.splitlines()
        return [ln for ln in lines if ln.startswith("<!--")], text.count("<polyline")

    if digest(got_text) != digest(ref_text):
        return ["comment lines or polyline count differ from the reference"]
    return []


def read_reference(ref_dir: Path) -> dict[str, str]:
    return {
        p.name[: -len(".gz")]: gzip.decompress(p.read_bytes()).decode("utf-8")
        for p in sorted(ref_dir.glob("*.gz"))
    }


def check_outputs(out_dir: Path, written: list[str], ref_dir: Path, drive_amp: float) -> list[str]:
    """Problems found comparing a command's written files with a reference."""
    refs = read_reference(ref_dir)
    if sorted(written) != sorted(refs):
        return [f"wrote {sorted(written)}, reference has {sorted(refs)}"]
    problems = []
    for name, ref_text in refs.items():
        got_text = (out_dir / name).read_text(encoding="utf-8")
        if name.endswith(".svg"):
            found = compare_svg(got_text, ref_text)
        else:
            found = compare_csv(got_text, ref_text, drive_amp)
        problems += [f"{name}: {msg}" for msg in found]
    return problems


def _perturbed(text: str, line_no: int, col: int, kind: str, drive_amp: float) -> str:
    """Copy of a CSV text with one checked value moved by PERTURB, in the
    same normalised amplitude the check uses."""
    lines = text.splitlines()
    fields = lines[line_no].split(",")
    x = float(fields[col])
    if kind == "dbm":
        amp = dbm_to_amplitude(x) + PERTURB * drive_amp
        x = 10.0 * math.log10(amp * amp / 2e-3)
    elif kind == "db":
        x = -20.0 * math.log10(10.0 ** (-x / 20.0) + PERTURB)
    elif kind == "wave":
        x += PERTURB * drive_amp
    elif kind == "rel":
        x = x * (1.0 + PERTURB) if x else PERTURB
    else:
        x += PERTURB
    fields[col] = repr(x)
    lines[line_no] = ",".join(fields)
    return "\n".join(lines) + "\n"


def self_test(drive_amp: float) -> int:
    """Each reference passes against itself; perturbing the first and last
    checked value of every column of every reference CSV makes it fail."""
    failures = 0
    cases = 0
    for ref_dir in sorted({p.parent for p in REFERENCE_DIR.rglob("*.gz")}):
        for name, text in read_reference(ref_dir).items():
            if name.endswith(".svg"):
                continue
            if compare_csv(text, text, drive_amp):
                print(f"FAIL {ref_dir.name}/{name}: reference does not pass against itself")
                failures += 1
            lines = text.splitlines()
            data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
            header = lines[data[0]].split(",")
            rows = data[1:]
            for col, col_name in enumerate(header):
                for row in (rows[0], rows[-1]):
                    key = lines[row].split(",")[0] if header == ["key", "value"] else col_name
                    if header == ["key", "value"] and (col == 0 or key == "flag"):
                        continue
                    if not math.isfinite(float(lines[row].split(",")[col])):
                        continue
                    kind = _column_kind(key)
                    cases += 1
                    bad = _perturbed(text, row, col, kind, drive_amp)
                    if not compare_csv(bad, text, drive_amp):
                        print(f"FAIL {ref_dir.name}/{name}: perturbed {key} at line {row + 1} passed")
                        failures += 1
    print(f"self-test: {cases} perturbed references, {failures} failures")
    return failures


def perturbed_run_fails() -> bool:
    """End to end: one ideal-run command checked against a reference whose
    run.csv has a single wave sample moved by PERTURB must count as failed."""
    import tempfile

    import run  # run.py imports this module, so import it only here

    run.TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_PARENT) as tmp:
        ref_dir = Path(tmp) / "ideal-run"
        ref_dir.mkdir()
        text = read_reference(REFERENCE_DIR / "ideal-run")["run.csv"]
        row = len(text.splitlines()) // 2
        bad = _perturbed(text, row, 3, "wave", dbm_to_amplitude(DRIVE_DBM))
        (ref_dir / "run.csv.gz").write_bytes(gzip.compress(bad.encode("utf-8"), mtime=0))
        result = run.measure("ideal-run", 0, 1.0, False, ref_root=Path(tmp))
    ok = not result["correct"] and result["failed"] == result["attempted"] == 1
    print(f"perturbed ideal-run reference: correct={result['correct']}, "
          f"failed {result['failed']} of {result['attempted']} -> {'ok' if ok else 'NOT DETECTED'}")
    return ok


if __name__ == "__main__":
    failures = self_test(dbm_to_amplitude(DRIVE_DBM))
    sys.exit(1 if failures or not perturbed_run_fails() else 0)
