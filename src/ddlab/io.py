"""Plain-text file formats: config CSV, squared-distance matrix CSV, curve CSV.

A config file starts with ``k=<int>,c=<int>``, then one ``P1,<rational>``
line per axis parameter and one ``P2,<rational>,...`` line (k coordinates)
per point. A matrix file starts with ``n=<int>,m=<int>`` followed by n rows
of m comma-separated rationals. Rationals are written ``n`` or ``n/d``
with d > 0. Everything is UTF-8; loaders sniff the header to tell the two
formats apart. Both readers parse each distinct literal text once per file
(exact.parse_distinct): a 400x400 orthogonal matrix holds 160,000 entries
but only 799 texts. The matrix reader maps each text straight to its int in
the matrix's canonical form, so it makes no Fraction per entry, and the
writer formats each distinct scaled value once (exact.format_ratio).
"""

from __future__ import annotations

import io as _io
import re
from itertools import chain
from pathlib import Path
from typing import TextIO

from .errors import FormatError, excerpt
from .exact import (
    Config, Source, SqDistMatrix, format_ratio, format_rational, parse_distinct, parse_rational, scale_table,
)
from .reduction import HyperbolaFamily, _ordered_pairs


def _parse_header_pair(line: str, key_a: str, key_b: str) -> tuple[int, int]:
    head = line.strip()
    match = re.fullmatch(f"{key_a}=([0-9]+),{key_b}=([0-9]+)", head)
    if match is None:
        raise FormatError(f"expected {key_a}=<int>,{key_b}=<int> header, got {excerpt(head)}")
    try:
        return int(match[1]), int(match[2])
    except ValueError as exc:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise FormatError(f"header integer too long ({len(head)} characters)") from exc


def write_config(cfg: Config, stream: TextIO) -> None:
    stream.write(f"k={cfg.k},c={cfg.c}\n")
    for v in cfg.p1_params:
        stream.write(f"P1,{format_rational(v)}\n")
    for p in cfg.p2_points:
        coords = ",".join(format_rational(v) for v in p.coords)
        stream.write(f"P2,{coords}\n")


def read_config(stream: TextIO) -> Config:
    """Read a config file; errors come in file order, as in read_matrix."""
    lines = [ln.strip() for ln in stream if ln.strip()]
    if not lines:
        raise FormatError("empty config file")
    k, c = _parse_header_pair(lines[0], "k", "c")
    rows = []  # the P1 and P2 lines split on commas, tag first, in file order
    problem = None
    for ln in lines[1:]:
        parts = ln.split(",")
        if parts[0] == "P1" and len(parts) != 2:
            problem = f"P1 line needs one rational: {excerpt(ln)}"
        elif parts[0] == "P2" and len(parts) != k + 1:
            problem = f"P2 line needs {k} rationals, got {len(parts) - 1}: {excerpt(ln)}"
        elif parts[0] not in ("P1", "P2"):
            problem = f"unknown line tag: {excerpt(parts[0])}"
        if problem is not None:
            break
        rows.append(parts)
    value = parse_distinct(chain.from_iterable(row[1:] for row in rows), parse_rational)
    if problem is not None:
        raise FormatError(problem)
    p1 = [value[row[1]] for row in rows if row[0] == "P1"]
    p2 = [tuple(map(value.__getitem__, row[1:])) for row in rows if row[0] == "P2"]
    try:
        return Config.of(k=k, c=c, p1_params=p1, p2_points=p2)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_matrix(mat: SqDistMatrix, stream: TextIO) -> None:
    """The matrix file of mat, formatting each distinct scaled value once."""
    text = {v: format_ratio(v, mat.scale) for v in set(chain.from_iterable(mat.scaled))}
    stream.write(f"n={mat.n},m={mat.m}\n")
    stream.writelines(",".join(map(text.__getitem__, row)) + "\n" for row in mat.scaled)


def read_matrix(stream: TextIO) -> SqDistMatrix:
    """Read a matrix file straight into its canonical int form.

    scale_table parses each distinct literal text once and maps every row's
    texts to ints through one dict, so no Fraction is made per entry. Errors
    come in file order: the first bad literal or row length among the first
    n rows, then a missing or surplus row. Blank lines are skipped, except
    that an n x 0 matrix, whose n rows are all blank, reads back as such.
    """
    lines = [ln.strip() for ln in stream if ln.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    n, m = _parse_header_pair(lines[0], "n", "m")
    if m == 0 and len(lines) == 1:
        lines += [""] * n  # the n empty rows of an n x 0 matrix
    rows = []
    for ln in lines[1 : n + 1]:
        parts = ln.split(",") if ln else []
        if len(parts) != m:
            scale_table(rows, parse_rational)  # a bad literal on an earlier row is reported first
            raise FormatError(f"expected {m} entries per row, got {len(parts)}: {excerpt(ln)}")
        rows.append(parts)
    scale, scaled = scale_table(rows, parse_rational)
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} rows, got {len(lines) - 1}")
    try:
        return SqDistMatrix(n=n, m=m, scale=scale, scaled=scaled)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_gamma_csv(family: HyperbolaFamily, stream: TextIO) -> None:
    """One curve per row: source pair indices and the three coefficients.

    Reads the family's int columns: each of the m axis values -firsts / scale
    is formatted once, and each gamma is reduced by a gcd, not a Fraction.
    """
    rhos, sq = family.rhos, family.scale * family.scale
    axis = [format_ratio(-x, family.scale) for x in family.firsts]
    stream.write("p_idx,q_idx,alpha,beta,gamma\n")
    stream.writelines(
        f"{i},{j},{axis[i]},{axis[j]},{format_ratio(rhos[i] - rhos[j], sq)}\n"
        for i, j in _ordered_pairs(family.m)
    )


def load_source(path: str | Path) -> Source:
    """Read a config or matrix file, telling them apart by the header."""
    text = Path(path).read_text(encoding="utf-8")
    head = text.lstrip().split("\n", 1)[0]
    if head.startswith("k="):
        return read_config(_io.StringIO(text))
    if head.startswith("n="):
        return read_matrix(_io.StringIO(text))
    raise FormatError(f"unrecognized header: {excerpt(head)}")


def write_source(src: Source, stream: TextIO) -> None:
    if isinstance(src, SqDistMatrix):
        write_matrix(src, stream)
    else:
        write_config(src, stream)


def save_source(src: Source, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_source(src, fh)
