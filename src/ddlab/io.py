"""Plain-text file formats: config CSV, squared-distance matrix CSV, curve CSV.

A config file starts with ``k=<int>,c=<int>``, then one ``P1,<rational>``
line per axis parameter and one ``P2,<rational>,...`` line (k coordinates)
per point. A matrix file starts with ``n=<int>,m=<int>`` followed by n rows
of m comma-separated rationals. Rationals are written ``n`` or ``n/d``
with d > 0. Everything is UTF-8; loaders sniff the header to tell the two
formats apart. A reader parses each distinct literal text once per file:
a 400x400 orthogonal matrix holds 160,000 entries but only 799 texts. The
matrix reader maps each text straight to its int in the matrix's canonical
form, so it makes no Fraction per entry, and the writer formats each
distinct scaled value once.
"""

from __future__ import annotations

import io as _io
import math
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import TextIO, Union

from .configs import SqDistMatrix
from .errors import FormatError, excerpt
from .exact import Config, Point, format_rational, parse_rational, scale_table
from .reduction import HyperbolaFamily, _ordered_pairs

Source = Union[Config, SqDistMatrix]


def _parse_header_pair(line: str, key_a: str, key_b: str) -> tuple[int, int]:
    head = line.strip()
    match = re.fullmatch(f"{key_a}=([0-9]+),{key_b}=([0-9]+)", head)
    if match is None:
        raise FormatError(f"expected {key_a}=<int>,{key_b}=<int> header, got {excerpt(head)}")
    try:
        return int(match[1]), int(match[2])
    except ValueError as exc:  # int() refuses more digits than sys.get_int_max_str_digits()
        raise FormatError(f"header integer too long ({len(head)} characters)") from exc


def _parse_literals(texts: list[str], memo: dict[str, Fraction]) -> tuple[Fraction, ...]:
    """parse_rational of each text, parsing each distinct text once per memo.

    Each reader owns one memo for a single call, so nothing outlives the
    read. Only successful parses are stored, so a bad literal raises the
    same FormatError every time it is met.
    """
    try:
        return tuple(map(memo.__getitem__, texts))
    except KeyError:
        for text in texts:
            if text not in memo:
                memo[text] = parse_rational(text)
        return tuple(map(memo.__getitem__, texts))


def write_config(cfg: Config, stream: TextIO) -> None:
    stream.write(f"k={cfg.k},c={cfg.c}\n")
    for v in cfg.p1_params:
        stream.write(f"P1,{format_rational(v)}\n")
    for p in cfg.p2_points:
        coords = ",".join(format_rational(v) for v in p.coords)
        stream.write(f"P2,{coords}\n")


def read_config(stream: TextIO) -> Config:
    lines = [ln.strip() for ln in stream if ln.strip()]
    if not lines:
        raise FormatError("empty config file")
    k, c = _parse_header_pair(lines[0], "k", "c")
    p1 = []
    p2 = []
    memo: dict[str, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if parts[0] == "P1":
            if len(parts) != 2:
                raise FormatError(f"P1 line needs one rational: {excerpt(ln)}")
            p1.extend(_parse_literals(parts[1:], memo))
        elif parts[0] == "P2":
            if len(parts) != k + 1:
                got = len(parts) - 1
                raise FormatError(f"P2 line needs {k} rationals, got {got}: {excerpt(ln)}")
            p2.append(_parse_literals(parts[1:], memo))
        else:
            raise FormatError(f"unknown line tag: {excerpt(parts[0])}")
    try:
        return Config.of(k=k, c=c, p1_params=p1, p2_points=p2)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_matrix(mat: SqDistMatrix, stream: TextIO) -> None:
    """The matrix file of mat, formatting each distinct scaled value once."""
    text = {v: _format_ratio(v, mat.scale) for v in set(chain.from_iterable(mat.scaled))}
    stream.write(f"n={mat.n},m={mat.m}\n")
    stream.writelines(",".join(map(text.__getitem__, row)) + "\n" for row in mat.scaled)


def read_matrix(stream: TextIO) -> SqDistMatrix:
    """Read a matrix file straight into its canonical int form.

    scale_table parses each distinct literal text once and maps every row's
    texts to ints through one dict, so no Fraction is made per entry. Errors
    come in file order: the first bad literal or row length in the file.
    """
    lines = [ln.strip() for ln in stream if ln.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    n, m = _parse_header_pair(lines[0], "n", "m")
    if len(lines) - 1 != n:
        raise FormatError(f"expected {n} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != m:
            scale_table(rows, parse_rational)  # a bad literal on an earlier row is reported first
            raise FormatError(f"expected {m} entries per row, got {len(parts)}: {excerpt(ln)}")
        rows.append(parts)
    scale, scaled = scale_table(rows, parse_rational)
    try:
        return SqDistMatrix(n=n, m=m, scale=scale, scaled=scaled, provenance="file")
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _format_ratio(num: int, den: int) -> str:
    """format_rational of num / den (den > 0), reduced with one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def write_gamma_csv(family: HyperbolaFamily, stream: TextIO) -> None:
    """One curve per row: source pair indices and the three coefficients.

    Reads the family's int columns: each of the m axis values -firsts / scale
    is formatted once, and each gamma is reduced by a gcd, not a Fraction.
    """
    rhos, sq = family.rhos, family.scale * family.scale
    axis = [_format_ratio(-x, family.scale) for x in family.firsts]
    stream.write("p_idx,q_idx,alpha,beta,gamma\n")
    stream.writelines(
        f"{i},{j},{axis[i]},{axis[j]},{_format_ratio(rhos[i] - rhos[j], sq)}\n"
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


def save_source(src: Source, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if isinstance(src, SqDistMatrix):
            write_matrix(src, fh)
        else:
            write_config(src, fh)
