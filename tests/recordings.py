"""Every pinned ddlab command, and the recordings its outputs must equal.

Each Recording is one command line with the files under tests/data that
its outputs must equal byte for byte. An output is "stdout", or a file the
command writes in its working directory; a command whose stdout is not
recorded must print nothing. tests/test_recordings.py runs every entry
through ddlab.cli.main, and CI runs the same list through the installed
console script.

The verify, stats and reduce entries come from the .csv inputs found in
tests/data/verify and tests/data/reduce, so a new fixture needs only its
files:
- verify: text (<name>.txt) and --json (<name>.json) stdout next to each
  input. fractional is a random c=1 config with fractional coordinates,
  cylinder a 50x50 cylinder past the quadruple oracle's guard (the SKIP
  path), radical-line conftest's RADICAL_LINE, matrix an orthogonal matrix,
  incidence-guard (`ddlab gen --n 100 --m 40 --seed 1`) reducible but past
  the incidence oracle's guard, and orthogonal
  (`ddlab gen --generator orthogonal --n 50 --m 50`) a matrix past the
  quadruple oracle's guard.
- stats: text and --json stdout in tests/data/stats, on every verify input
  and on CYLINDER_512, whose 512 x 512 pairs are exactly NUMPY_MIN_PAIRS:
  the numpy kernel's first size, and the stdlib kernel's when numpy is
  missing.
- reduce: text stdout with the gamma CSV that --output writes
  (<name>.gamma.csv), and --json stdout (per_curve in i-major order), next
  to each input: a random k=2 config from a narrow coordinate range (134
  incidences), a k=3 config with denominators 30 (26 incidences) and the
  radical-line fixture (none).

GEN_ARGV, BOUND_ARGV and SWEEP_ARGV are written out: gen stdout in
tests/data/gen (the random ones recorded while gen_random still drew
Fractions), bound text and --json stdout in tests/data/bound (one (n, m) in
each regime R1 to R4 and README's log2-clamped example; floats printed with
repr, so a change to a term's evaluation order shows), and the CSV that
SWEEP_ARGV writes in tests/data/sweep.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

DATA = Path(__file__).resolve().parent / "data"
STDOUT = "stdout"
CYLINDER_512 = DATA / "gen" / "cylinder-512.csv"

GEN_ARGV = {
    "random-k3": ["--n", "5", "--m", "4", "--k", "3", "--seed", "8", "--coord-range", "80"],
    # 21 point draws for 6 points: 15 are rejected for a repeated axis
    # coordinate or squared axis distance
    "random-rejections": ["--n", "3", "--m", "6", "--coord-range", "9", "--seed", "0"],
    "cylinder": ["--generator", "cylinder", "--n", "4", "--m", "3", "--offset", "7/3"],
    "orthogonal": ["--generator", "orthogonal", "--n", "3", "--m", "4"],
    "cylinder-512": ["--generator", "cylinder", "--n", "512", "--m", "512"],  # CYLINDER_512
}
BOUND_ARGV = {
    "n100-m5": ["--n", "100", "--m", "5"],  # R1
    "n10000-m200": ["--n", "10000", "--m", "200"],  # R2
    "n100-m1000": ["--n", "100", "--m", "1000"],  # R3
    "n3-m100": ["--n", "3", "--m", "100"],  # R4
    "n100-m5-log2-clamped": ["--n", "100", "--m", "5", "--log-convention", "log2-clamped"],
}
SWEEP_ARGV = ["sweep", "--n-list", "4,9,16", "--m-list", "3,8", "--seeds", "0,1", "--coord-range", "24"]


class Recording(NamedTuple):
    id: str
    argv: list[str]
    outputs: dict[str, Path]  # STDOUT or a written file name -> its recording

    def expected(self) -> dict[str, bytes]:
        return {STDOUT: b""} | {name: path.read_bytes() for name, path in self.outputs.items()}

    def produced(self, stdout: bytes, workdir: Path) -> dict[str, bytes]:
        """The run's stdout and each file it was to write in workdir."""
        written = {name: (workdir / name).read_bytes() for name in self.outputs if name != STDOUT}
        return {STDOUT: stdout} | written


def _inputs(kind: str) -> list[Path]:
    """The .csv inputs in tests/data/<kind>, reduce's recorded gamma CSVs excluded."""
    return sorted(p for p in (DATA / kind).glob("*.csv") if not p.name.endswith(".gamma.csv"))


def _text_and_json(id: str, argv: list[str], recorded: Path) -> list[Recording]:
    """argv and argv + --json, with stdout recorded in recorded.txt and recorded.json."""
    return [
        Recording(f"{id}-txt", argv, {STDOUT: recorded.with_suffix(".txt")}),
        Recording(f"{id}-json", argv + ["--json"], {STDOUT: recorded.with_suffix(".json")}),
    ]


def _recordings() -> list[Recording]:
    entries = []
    for src in _inputs("verify"):
        entries += _text_and_json(f"verify-{src.stem}", ["verify", "--input", str(src)], src)
    for src in _inputs("verify") + [CYLINDER_512]:
        entries += _text_and_json(f"stats-{src.stem}", ["stats", "--input", str(src)], DATA / "stats" / src.name)
    for src in _inputs("reduce"):
        argv, gamma = ["reduce", "--input", str(src)], src.with_name(f"{src.stem}.gamma.csv")
        text = {STDOUT: src.with_suffix(".txt"), "gamma.csv": gamma}
        entries.append(Recording(f"reduce-{src.stem}-txt", argv + ["--output", "gamma.csv"], text))
        entries.append(Recording(f"reduce-{src.stem}-json", argv + ["--json"], {STDOUT: src.with_suffix(".json")}))
    for name, argv in GEN_ARGV.items():
        entries.append(Recording(f"gen-{name}", ["gen", *argv], {STDOUT: DATA / "gen" / f"{name}.csv"}))
    for name, argv in BOUND_ARGV.items():
        entries += _text_and_json(f"bound-{name}", ["bound", *argv], DATA / "bound" / name)
    sweep = {"sweep.csv": DATA / "sweep" / "grid.csv"}
    entries.append(Recording("sweep-grid", SWEEP_ARGV + ["--output", "sweep.csv"], sweep))
    return entries


RECORDINGS = _recordings()
