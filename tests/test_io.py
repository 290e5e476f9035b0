"""File formats: config CSV, matrix CSV, curve CSV, sniffing loader."""

from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddlab.cli
import ddlab.io
from ddlab import (
    Config,
    FormatError,
    SqDistMatrix,
    build_family,
    gen_cylinder_extremal,
    gen_orthogonal_extremal,
    parse_rational,
)
from ddlab.exact import parse_distinct
from ddlab.io import (
    load_source,
    read_config,
    read_matrix,
    save_source,
    write_config,
    write_gamma_csv,
    write_matrix,
)
from conftest import fractional_config, matrix_values, small_random_config


def round_trip_config(cfg: Config) -> Config:
    buf = io.StringIO()
    write_config(cfg, buf)
    return read_config(io.StringIO(buf.getvalue()))


class TestConfigFormat:
    def test_golden(self):
        cfg = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])
        buf = io.StringIO()
        write_config(cfg, buf)
        assert buf.getvalue() == "k=2,c=1\nP1,0\nP1,2\nP2,0,1\nP2,1,2\n"

    def test_round_trip_random(self):
        for seed in range(8):
            cfg = small_random_config(seed)
            assert round_trip_config(cfg) == cfg

    def test_round_trip_fractional(self):
        cfg = fractional_config(3, n=3, m=4, k=3)
        assert round_trip_config(cfg) == cfg

    def test_unsorted_p1_is_sorted(self):
        cfg = read_config(io.StringIO("k=2,c=1\nP1,5\nP1,1\nP2,0,1\n"))
        assert cfg.p1_params == (1, 5)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "k=2\nP1,0\n",
            "c=1,k=2\nP1,0\n",
            "k=2,c=1\nP1,0,3\n",
            "k=2,c=1\nP2,1\n",
            "k=3,c=1\nP2,1,2\n",
            "k=2,c=1\nP3,1,2\n",
            "k=2,c=1\nP1,0\nP1,0\nP2,1,2\n",
            "k=2,c=1\nP2,0.5,1\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            read_config(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("k=2,c=1\nP1,1/0\nP2,1\n", "zero denominator: '1/0'"),
            ("k=2,c=1\nP2,1\nP1,1/0\n", "P2 line needs 2 rationals, got 1: 'P2,1'"),
            ("k=2,c=1\nP2,0,x\nQ,1\n", "bad rational literal: 'x'"),
            ("k=2,c=1\nQ,1\nP2,0,x\n", "unknown line tag: 'Q'"),
            ("k=2,c=1\nP1,1,1/0\nP1,x\n", "P1 line needs one rational: 'P1,1,1/0'"),
            ("k=2,c=1\nP1,1\nP1,1\nP2,0,1/0\n", "zero denominator: '1/0'"),
        ],
    )
    def test_first_error_in_file_order(self, text, message):
        # as a line-by-line parse would report it; the increasing-P1 check comes after every literal
        with pytest.raises(FormatError) as exc:
            read_config(io.StringIO(text))
        assert str(exc.value) == message

    def test_parses_each_distinct_text_once_in_file_order(self, monkeypatch):
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse_rational(text)

        monkeypatch.setattr(ddlab.io, "parse_rational", counting_parse)
        cfg = read_config(io.StringIO("k=2,c=1\nP1,4/6\nP2,1,4/6\nP1,1\nP2,2/3,1\nP2,-0,2\n"))
        assert calls == ["4/6", "1", "2/3", "-0", "2"]
        assert cfg == Config.of(2, 1, ["2/3", 1], [(1, "2/3"), ("2/3", 1), (0, 2)])


class TestMatrixFormat:
    def test_golden(self):
        mat = gen_orthogonal_extremal(2, 3)
        buf = io.StringIO()
        write_matrix(mat, buf)
        assert buf.getvalue() == "n=2,m=3\n2,3,4\n3,4,5\n"

    def test_round_trip(self):
        mat = SqDistMatrix.of(
            n=2,
            m=2,
            entries=((Fraction(1, 3), Fraction(5)), (Fraction(0), Fraction(7, 2))),
        )
        buf = io.StringIO()
        write_matrix(mat, buf)
        back = read_matrix(io.StringIO(buf.getvalue()))
        assert matrix_values(back) == ((Fraction(1, 3), 5), (0, Fraction(7, 2)))
        assert back == mat

    def test_round_trip_without_columns(self):
        # an n x 0 matrix is written as n blank rows
        mat = SqDistMatrix(n=2, m=0, scale=1, scaled=((), ()))
        buf = io.StringIO()
        write_matrix(mat, buf)
        assert buf.getvalue() == "n=2,m=0\n\n\n"
        assert read_matrix(io.StringIO(buf.getvalue())) == mat
        assert read_matrix(io.StringIO("n=2,m=0\n")) == mat
        with pytest.raises(FormatError, match="expected 0 entries per row, got 1"):
            read_matrix(io.StringIO("n=2,m=0\n1\n"))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n=2,m=2\n1,2\n",
            "n=1,m=2\n1\n",
            "n=1,m=1\n-3\n",
            "m=1,n=1\n3\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            read_matrix(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=2,m=2\n1,1/0\n1\n", "zero denominator: '1/0'"),
            ("n=2,m=2\n1\n1/0,2\n", "expected 2 entries per row, got 1: '1'"),
            ("n=2,m=2\n1,x\n2,1/0\n", "bad rational literal: 'x'"),
            ("n=2,m=2\n1,-1\n2,1/0\n", "zero denominator: '1/0'"),
            ("n=3,m=2\n1,1/0\n", "zero denominator: '1/0'"),
            ("n=3,m=2\n1\n", "expected 2 entries per row, got 1: '1'"),
            ("n=3,m=2\n1,2\n", "expected 3 rows, got 1"),
            ("n=1,m=2\n1,2\n3,1/0\n", "expected 1 rows, got 2"),
        ],
    )
    def test_first_error_in_file_order(self, text, message):
        # as a row-by-row parse would report it; a sign comes after every literal
        with pytest.raises(FormatError) as exc:
            read_matrix(io.StringIO(text))
        assert str(exc.value) == message


def test_gamma_csv_golden():
    cfg = Config.of(2, 1, [0, 2], [(0, 1), (1, 2)])
    buf = io.StringIO()
    write_gamma_csv(build_family(cfg), buf)
    assert buf.getvalue() == (
        "p_idx,q_idx,alpha,beta,gamma\n"
        "0,1,0,-1,-3\n"
        "1,0,-1,0,3\n"
    )


def test_loader_sniffs(tmp_path):
    cfg = small_random_config(4)
    cfg_path = tmp_path / "config.csv"
    save_source(cfg, cfg_path)
    assert load_source(cfg_path) == cfg

    mat = gen_orthogonal_extremal(3, 2)
    mat_path = tmp_path / "matrix.csv"
    save_source(mat, mat_path)
    loaded = load_source(mat_path)
    assert isinstance(loaded, SqDistMatrix)
    assert loaded == mat

    bad = tmp_path / "bad.csv"
    bad.write_text("x=1\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_source(bad)


def test_loader_parses_each_distinct_literal_once(monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse_rational(text)

    monkeypatch.setattr(ddlab.io, "parse_rational", counting_parse)
    mat = gen_orthogonal_extremal(400, 400)
    buf = io.StringIO()
    write_matrix(mat, buf)
    assert read_matrix(io.StringIO(buf.getvalue())) == mat
    assert len(calls) == 799  # the values 2..800, among 160,000 entries

    calls.clear()
    cfg = gen_cylinder_extremal(50, 50)
    assert round_trip_config(cfg) == cfg
    assert sorted(calls, key=int) == [str(v) for v in range(50)]  # "1" is P1 and P2 text


def test_matrix_stats_makes_no_fraction_per_entry(tmp_path, monkeypatch, capsys):
    path = tmp_path / "orthogonal.csv"
    assert ddlab.cli.main(["gen", "--generator", "orthogonal", "--n", "400", "--m", "400",
                           "--output", str(path)]) == 0
    real_new = Fraction.__new__
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert ddlab.cli.main(["stats", "--input", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == 799
    assert len(made) == 799  # parse_rational of each distinct literal, nothing per entry
    mat = load_source(path)
    assert (mat.scale, mat.scaled[399][399]) == (1, 800)


def test_bad_literal_raises_every_time():
    two_thirds = Fraction(2, 3)
    assert parse_distinct(["4/6", "2/3", "4/6"], parse_rational) == {"4/6": two_thirds, "2/3": two_thirds}
    for _ in range(2):  # no parse outlives a read, so a bad text fails alike each time
        with pytest.raises(FormatError, match="zero denominator: '1/0'"):
            read_config(io.StringIO("k=2,c=1\nP1,4/6\nP2,2/3,4/6\nP2,4/6,1/0\n"))
    with pytest.raises(FormatError, match="zero denominator"):
        read_matrix(io.StringIO("n=2,m=2\n4/6,2/3\n4/6,1/0\n"))


# Arbitrary text, and text built from the formats' own pieces so that the
# readers get past the header and into the literals.
_TOKENS = st.sampled_from(
    ["P1", "P2", "P3", "0", "-0", "3", "-3", "4/6", "2/3", "1/0", "5/", "+5", "1.5", "x", "", " 7", "9" * 4400]
)
_HEADERS = st.sampled_from(
    ["k=2,c=1", "k=3,c=2", "k=1,c=1", "k=2,c=0", "k=2", "n=2,m=2", "n=1,m=3", "n=0,m=0", "n=-1,m=2", "n=2", "x=1"]
)
_FORMAT_LIKE = st.builds(
    lambda head, lines: "\n".join([head] + [",".join(ln) for ln in lines]),
    _HEADERS,
    st.lists(st.lists(_TOKENS, max_size=4), max_size=5),
)
_ANY_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789-/,=\n\r kcnmP+."), _FORMAT_LIKE)


@settings(max_examples=300, deadline=None)
@given(_ANY_TEXT)
def test_readers_raise_only_format_error(text):
    for reader in (read_config, read_matrix):
        try:
            reader(io.StringIO(text))
        except FormatError:
            pass


# Literal texts for matrix entries: equal values written differently
# ("4/6" beside "2/3", "-0" beside "0"), plus negative and bad literals.
_GOOD_LITERALS = ["0", "-0", "2/3", "4/6", "6/9", "7", "14/2", "1/3", "2/6", "-2/6", "5/1"]
_BAD_LITERALS = ["1/0", "+2", "1.5", "x", "1/-3", "9" * 4400]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memoized_matrix_read_matches_entrywise_parse(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(st.sampled_from(_GOOD_LITERALS), min_size=1, max_size=4))
    rows = [[data.draw(st.sampled_from(pool)) for _ in range(m)] for _ in range(n)]
    if data.draw(st.booleans()):  # a bad literal after good repeated ones
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        rows[i][j] = data.draw(st.sampled_from(_BAD_LITERALS))
    text = f"n={n},m={m}\n" + "".join(",".join(row) + "\n" for row in rows)

    try:
        expected = tuple(tuple(parse_rational(t) for t in row) for row in rows)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_matrix(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    if any(v < 0 for row in expected for v in row):
        with pytest.raises(FormatError, match="negative"):
            read_matrix(io.StringIO(text))
        return
    mat = read_matrix(io.StringIO(text))
    assert matrix_values(mat) == expected
    assert all(type(v) is int for row in mat.scaled for v in row)


# Lines of a wrong shape for k, each with the error that reports it.
_MALFORMED_LINES = {
    "P1": "P1 line needs one rational: 'P1'",
    "P1,1,1/0": "P1 line needs one rational: 'P1,1,1/0'",
    "P2,x": "P2 line needs {k} rationals, got 1: 'P2,x'",
    "P2,1,2,3,4": "P2 line needs {k} rationals, got 4: 'P2,1,2,3,4'",
    "P3,1,2": "unknown line tag: 'P3'",
    ",1": "unknown line tag: ''",
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_config_read_matches_linewise_parse(data):
    # the reference is the line-by-line reader: each line's shape is checked,
    # then its literals are parsed, before the next line is looked at
    k = data.draw(st.integers(2, 3))
    pool = data.draw(st.lists(st.sampled_from(_GOOD_LITERALS), min_size=1, max_size=4))
    rows = []
    for tag in data.draw(st.lists(st.sampled_from(["P1", "P2"]), max_size=6)):
        rows.append([tag] + [data.draw(st.sampled_from(pool)) for _ in range(1 if tag == "P1" else k)])
    for _ in range(data.draw(st.integers(0, 2)) if rows else 0):  # bad literals among good repeated ones
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(1, len(row) - 1))] = data.draw(st.sampled_from(_BAD_LITERALS))
    if data.draw(st.booleans()):
        line = data.draw(st.sampled_from(sorted(_MALFORMED_LINES)))
        rows.insert(data.draw(st.integers(0, len(rows))), line.split(","))
    text = f"k={k},c=1\n" + "".join(",".join(row) + "\n" for row in rows)

    p1, p2 = [], []
    try:
        for row in rows:
            if row[0] not in ("P1", "P2") or len(row) != (2 if row[0] == "P1" else k + 1):
                raise FormatError(_MALFORMED_LINES[",".join(row)].format(k=k))
            values = tuple(parse_rational(t) for t in row[1:])
            if row[0] == "P1":
                p1.extend(values)
            else:
                p2.append(values)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_config(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    if len(set(p1)) < len(p1):
        with pytest.raises(FormatError, match="strictly increasing"):
            read_config(io.StringIO(text))
        return
    cfg = read_config(io.StringIO(text))
    assert cfg.p1_params == tuple(sorted(p1))
    assert tuple(p.coords for p in cfg.p2_points) == tuple(p2)
    coords = chain.from_iterable(p.coords for p in cfg.p2_points)
    assert all(type(v) is Fraction for v in chain(cfg.p1_params, coords))


# int() reads each header value below as a number that fits the body, so
# only the header grammar (ASCII digits and nothing else) rejects the file.
_LOOSE_HEADERS = [
    ("n= 1_0,m=١", "1\n" * 10),
    ("n=+2,m=1", "1\n2\n"),
    ("n=2,m=1_0", ("1," * 9 + "1\n") * 2),
    ("n=2, m=1", "1\n2\n"),
    ("k=٢,c=+1", "P1,0\nP2,1,2\n"),
    ("k=2,c=１", "P1,0\nP2,1,2\n"),
    ("k=2 ,c=1", "P1,0\nP2,1,2\n"),
]


@pytest.mark.parametrize("head,body", _LOOSE_HEADERS, ids=[head for head, _ in _LOOSE_HEADERS])
def test_header_takes_only_ascii_digits(head, body, tmp_path):
    reader = read_matrix if head.startswith("n=") else read_config
    with pytest.raises(FormatError, match="header"):
        reader(io.StringIO(f"{head}\n{body}"))
    path = tmp_path / "loose.csv"
    path.write_text(f"{head}\n{body}", encoding="utf-8")
    with pytest.raises(FormatError):
        load_source(path)


def test_header_accepts_plain_digits():
    assert read_matrix(io.StringIO("n=02,m=1\n1\n2\n")).n == 2
    assert read_config(io.StringIO(" k=3,c=2 \nP1,0\nP2,1,2,3\n")).c == 2


_WIDE_ROW = ",".join(str(v) for v in range(400))


_LONG_TEXTS = {
    "wide-matrix-row": (read_matrix, f"n=1,m=3\n{_WIDE_ROW}\n"),
    "wide-p2-line": (read_config, f"k=2,c=1\nP1,0\nP2,{_WIDE_ROW}\n"),
    "wide-p1-line": (read_config, f"k=2,c=1\nP1,{_WIDE_ROW}\n"),
    "long-tag": (read_config, f"k=2,c=1\n{'Q' * 2000},1\n"),
    "zero-denominator": (read_matrix, f"n=1,m=1\n{'1' * 2000}/0\n"),
    "bad-literal": (read_matrix, f"n=1,m=1\n{'1' * 2000}/x\n"),
    "bad-header": (read_matrix, f"n={'1' * 2000},m=x\n1\n"),
    "header-past-digit-limit": (read_matrix, f"n={'1' * 5000},m=1\n1\n"),
}


@pytest.mark.parametrize("reader,text", _LONG_TEXTS.values(), ids=_LONG_TEXTS.keys())
def test_format_errors_quote_a_short_prefix(reader, text):
    with pytest.raises(FormatError) as exc:
        reader(io.StringIO(text))
    assert len(str(exc.value)) < 120
    assert "characters)" in str(exc.value)


def test_short_texts_are_quoted_whole():
    with pytest.raises(FormatError, match=r"expected 3 entries per row, got 2: '1,2'"):
        read_matrix(io.StringIO("n=1,m=3\n1,2\n"))
    with pytest.raises(FormatError, match=r"P2 line needs 2 rationals, got 1: 'P2,1'"):
        read_config(io.StringIO("k=2,c=1\nP1,0\nP2,1\n"))
    with pytest.raises(FormatError, match=r"bad rational literal: '1\.5'"):
        parse_rational("1.5")
