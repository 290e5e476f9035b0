"""Distance classes and exact distance-energy accounting.

A distance class collects every (P1 index, P2 index) pair realizing one
squared distance; the classes partition all n*m pairs. The energy Q counts
ordered pairs of distinct pairs inside a class, split into Q0 (both pairs
use the same P2 point) and Q1 (different P2 points). All counts are exact
integers. Because an axis point at a given distance from p has at most one
mirror partner on the axis, no column of a config's table repeats a value
more than twice, so Q0 never exceeds n*m there. An arbitrary matrix can
break that property, and then Q0 can exceed n*m.

check_chain verifies the Cauchy-Schwarz link between the distinct count x
and the energy: x * Q >= (nm - x)^2 exactly, and when x <= nm/2 also
4 * x * Q >= m^2 * n^2.

Both reports store only what cannot be derived. An EnergyReport keeps Q0
and the class-size histogram, and reads x, Q and Q1 off them; a
ChainReport keeps (n, m, x, Q) and computes every verdict from them. So
no report can carry a Q other than the sum of e(e - 1) over its classes,
or a verdict that contradicts its slack.

energy_report counts on plain ints: it reads a config's scaled view,
Config.view (every squared distance times L^2), and a matrix's
canonical int table (SqDistMatrix.scaled) as it is, and one positive factor
keeps every equality.
energy, the reference, counts the reduced (numerator, denominator) int
pair of each squared distance (exact.sq_dist_rows, one gcd per value) one
P2 column at a time, sharing no code with energy_report. On a config it
reads the original rationals, so it checks that scaling; on a matrix, the
same canonical ints as energy_report. distance_classes groups the pairs by
these keys, one Fraction key per class, for verify's bijection audit.

energy_report has two kernels. The stdlib kernel streams one column at a
time through Counters; it runs on every input and is the numpy kernel's
reference. On inputs of at least NUMPY_MIN_PAIRS pairs the numpy kernel
sorts a table instead, provided numpy can be imported and a bound
computed up front in Python ints keeps every intermediate value below
2^63; otherwise energy_report falls back to the stdlib kernel. The table
is int32 when that bound is below 2^31 and int64 otherwise; a matrix's
table is filled column-major straight from its int rows. Beside it the
kernel holds only block-sized scratch: it marks run starts one block at a
time, so its working set is about itemsize bytes per pair plus a fixed
few hundred kB. numpy is imported only there, so smaller inputs never pay
for loading it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import Source, SqDistMatrix, sq_dist_rows
from .records import frozen_record

# Measured break-even of the numpy kernel: at 2^18 pairs the stdlib kernel
# (about 0.6 us per pair) takes about as long as importing numpy and sorting.
# A fresh `import numpy` costs about 0.11 s over the bare interpreter with
# OPENBLAS_NUM_THREADS=1, the default ddlab.cli.main sets, and about 0.18 s
# when OpenBLAS starts its thread pool (medians of 15 processes, 2 cores,
# Python 3.11.7, numpy 2.4.6). Inputs of 400x400 (160,000 pairs) stay on
# the stdlib kernel.
NUMPY_MIN_PAIRS = 1 << 18
_INT32_LIMIT = 1 << 31
_INT64_LIMIT = 1 << 63
# Table entries that _run_length_counts marks and counts per step; its
# scratch arrays stay at a few hundred kB whatever the table size. Chosen
# from a sweep on a random 1200x1200 config (int32, 2 cores, numpy 2.4.6;
# kernel time, traced peak per pair): 2^16 took 32.2 ms at 5.14 B/pair,
# 2^15 30.5 ms at 4.57, 2^14 31.2 ms at 4.29 and 2^13 33.1 ms at 4.14; a
# bool run-start mask of the whole table took 32.0 ms at 6.09.
_RUN_BLOCK = 1 << 14


def _scaled_columns(src: Source) -> Iterator[Sequence[int]]:
    """Each P2 column of squared distances, all scaled by one factor into ints."""
    if isinstance(src, SqDistMatrix):
        yield from zip(*src.scaled)
    else:
        view = src.view
        for x, r in zip(view.firsts, view.rhos):
            yield [(a - x) * (a - x) + r for a in view.params]


@frozen_record
class DistanceClasses:
    """Map from each squared distance to the list of (i, j) pairs realizing it.

    Keys are the exact squared distances as Fractions; pair lists keep the
    first-seen order, scanning i-major.
    """

    n: int
    m: int
    classes: dict

    @property
    def distinct_count(self) -> int:
        return len(self.classes)


@frozen_record
class EnergyReport:
    """Q0 and the class-size histogram of an n x m source; x, Q and Q1 are read off them."""

    n: int
    m: int
    energy_same_point: int
    class_histogram: tuple[tuple[int, int], ...]  # (class size, how many classes)

    @property
    def distinct_count(self) -> int:
        return sum(count for _, count in self.class_histogram)

    @property
    def energy(self) -> int:
        return sum(e * (e - 1) * count for e, count in self.class_histogram)

    @property
    def energy_cross(self) -> int:
        return self.energy - self.energy_same_point

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "x": self.distinct_count,
            "Q": self.energy,
            "Q0": self.energy_same_point,
            "Q1": self.energy_cross,
            "histogram": [[size, count] for size, count in self.class_histogram],
        }


@frozen_record
class ChainReport:
    """Exact verdicts for the energy inequality chain at one (n, m, x, Q).

    cauchy_ok: x * Q >= (nm - x)^2, with the exact slack attached.
    x_le_half: whether x <= nm / 2.
    lower_ok: whether 4 * x * Q >= m^2 * n^2; None when x > nm/2 (the bound
    is not claimed there) or when Q = 0 (then x = nm, every pair realizes a
    fresh distance and the ratio form is vacuous).
    ok: cauchy_ok, and lower_ok where it is claimed.
    """

    n: int
    m: int
    distinct_count: int
    energy: int

    @property
    def slack(self) -> int:
        x = self.distinct_count
        return x * self.energy - (self.n * self.m - x) ** 2

    @property
    def cauchy_ok(self) -> bool:
        return self.slack >= 0

    @property
    def x_le_half(self) -> bool:
        return 2 * self.distinct_count <= self.n * self.m

    @property
    def vacuous(self) -> bool:
        return self.energy == 0

    @property
    def lower_ok(self) -> bool | None:
        if not self.x_le_half or self.vacuous:
            return None
        return 4 * self.distinct_count * self.energy >= (self.n * self.m) ** 2

    @property
    def ok(self) -> bool:
        return self.cauchy_ok and self.lower_ok is not False


def distance_classes(src: Source) -> DistanceClasses:
    """Group all n*m (P1 index, P2 index) pairs by exact rational squared distance."""
    by_key: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, row in enumerate(sq_dist_rows(src)):
        for j, key in enumerate(row):
            by_key.setdefault(key, []).append((i, j))
    classes = {Fraction(num, den): pairs for (num, den), pairs in by_key.items()}
    return DistanceClasses(n=src.n, m=src.m, classes=classes)


def energy(src: Source) -> EnergyReport:
    """The reference EnergyReport: counts the reduced-pair keys of
    exact.sq_dist_rows one P2 column at a time, building no pair list and no
    Fraction, and reading the input's own values, never Config.view."""
    sizes: Counter = Counter()
    q0 = 0
    for col in zip(*sq_dist_rows(src)):
        sizes.update(col)
        q0 += sum(c * (c - 1) for c in Counter(col).values())
    return EnergyReport(src.n, src.m, q0, tuple(sorted(Counter(sizes.values()).items())))


def energy_report(src: Source) -> EnergyReport:
    """EnergyReport straight from a source, without materializing pair lists.

    Agrees exactly with energy(src), the reference count. Large inputs go to
    the numpy kernel when it can count them exactly, everything else to the
    stdlib kernel (see the module docstring).
    """
    if src.n * src.m >= NUMPY_MIN_PAIRS:
        rep = _numpy_report(src)
        if rep is not None:
            return rep
    return _stdlib_report(src)


def _stdlib_report(src: Source) -> EnergyReport:
    """The reference kernel: streams one scaled int column at a time.

    The global size table yields the histogram, the per-column table
    yields Q0; memory stays flat on large inputs.
    """
    sizes: Counter = Counter()
    q0 = 0
    for col in _scaled_columns(src):
        sizes.update(col)
        q0 += sum(c * (c - 1) for c in Counter(col).values() if c > 1)
    return EnergyReport(src.n, src.m, q0, tuple(sorted(Counter(sizes.values()).items())))


def _table_dtype(bound: int) -> str | None:
    """The narrowest numpy int dtype holding every value up to bound, or
    None when not even int64 does."""
    if bound < _INT32_LIMIT:
        return "int32"
    if bound < _INT64_LIMIT:
        return "int64"
    return None


def _numpy_report(src: Source) -> EnergyReport | None:
    """The numpy kernel: sorted runs of an (m, n) table of scaled squared distances.

    A bound on the largest intermediate value (|a - x| squared plus rho for
    a config, the largest scaled entry for a matrix) covers every
    difference, square and sum, and picks the table's dtype: int32 below
    2^31, int64 below 2^63 (_table_dtype). Returns None, before importing
    anything, when the bound is not below 2^63, and None when numpy cannot
    be imported. The runs are marked and counted a block at a time, so
    nothing but the table has size n*m.
    """
    if isinstance(src, SqDistMatrix):
        bound = max(map(max, src.scaled))
    else:
        view = src.view
        bound = (max(map(abs, view.params)) + max(map(abs, view.firsts))) ** 2 + max(view.rhos)
    dtype = _table_dtype(bound)
    if dtype is None:
        return None
    try:
        import numpy as np
    except ImportError:  # numpy is optional; the stdlib kernel gives the same report
        return None

    if isinstance(src, SqDistMatrix):
        # filled column-major, so its transpose is C-contiguous and flat below is a view
        table = np.array(src.scaled, dtype=dtype, order="F").T
    else:
        table = np.subtract.outer(
            np.array(view.firsts, dtype=dtype), np.array(view.params, dtype=dtype)
        )
        np.multiply(table, table, out=table)
        table += np.array(view.rhos, dtype=dtype)[:, None]
    flat = table.reshape(-1)
    table.sort(axis=1)
    q0 = sum(c * (c - 1) * k for c, k in _run_length_counts(np, flat, src.n))
    flat.sort()
    hist = _run_length_counts(np, flat, flat.size)
    return EnergyReport(src.n, src.m, q0, tuple(sorted(hist)))


def _run_length_counts(np, flat, row: int) -> list[tuple[int, int]]:
    """(run length, how many runs) for the runs of equal values in each
    sorted row of `row` entries of flat, as Python ints.

    Run starts are marked _RUN_BLOCK entries at a time in one block-sized
    bool buffer: where an entry differs from the one before it, and at each
    row boundary (a run never crosses one). Inside a block the gaps between
    run starts are shorter than the block and go to np.bincount; the gap
    back to an earlier block's last start, and the final run, can be as
    long as flat and are counted one by one.
    """
    starts = np.empty(_RUN_BLOCK, dtype=bool)
    short = np.zeros(_RUN_BLOCK, dtype=np.int64)
    long: Counter = Counter()
    prev = 0
    for lo in range(0, flat.size, _RUN_BLOCK):
        hi = min(lo + _RUN_BLOCK, flat.size)
        mark = starts[: hi - lo]
        new = max(lo, 1)  # index 0 has no predecessor; it starts a row
        np.not_equal(flat[new:hi], flat[new - 1 : hi - 1], out=mark[new - lo :])
        mark[(-lo) % row :: row] = True
        first = np.flatnonzero(mark)
        if first.size:
            first += lo
            long[int(first[0]) - prev] += 1
            counts = np.bincount(np.diff(first))
            short[: counts.size] += counts
            prev = int(first[-1])
    long[flat.size - prev] += 1
    del long[0]  # the first start, at index 0, ends no run
    for length in np.flatnonzero(short).tolist():
        long[length] += int(short[length])
    return list(long.items())


def check_chain(report: EnergyReport) -> ChainReport:
    """The exact inequality chain tying the report's x to its Q."""
    return ChainReport(report.n, report.m, report.distinct_count, report.energy)
