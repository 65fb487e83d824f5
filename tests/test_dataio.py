import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import jamag.dataio as dataio
from jamag.core import MU0, MaterialSpec
from jamag.dataio import (
    CurveKind,
    LoopFeatures,
    MagnetizationCurve,
    Unit,
    extract_features,
    parse_curve,
    split_branches,
)
from jamag.dataio import _crossing
from jamag.errors import DataError, NonPhysicalParameterWarning, ParseError
from jamag.simulate import FieldWaveform, HysteresisParams, integrate
from jamag.validation import synthetic_curve

from conftest import write_curve_file


class TestCurveType:
    def test_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            MagnetizationCurve(H=np.arange(3.0), M=np.arange(4.0), kind=CurveKind.ANHYSTERETIC)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            MagnetizationCurve(H=np.array([]), M=np.array([]), kind=CurveKind.FULL_LOOP)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MagnetizationCurve(
                H=np.array([1.0, 2.0]), M=np.array([1.0, np.nan]), kind=CurveKind.FULL_LOOP
            )

    def test_monotone_kinds_require_increasing_fields(self):
        with pytest.raises(ValueError):
            MagnetizationCurve(
                H=np.array([1.0, 1.0, 2.0]),
                M=np.zeros(3),
                kind=CurveKind.ANHYSTERETIC,
            )
        # loops are time-ordered, repeats allowed
        MagnetizationCurve(H=np.array([1.0, 2.0, 1.0]), M=np.zeros(3), kind=CurveKind.FULL_LOOP)

    def test_kind_given_by_value(self):
        curve = MagnetizationCurve(H=np.array([1.0, 2.0]), M=np.zeros(2), kind="full_loop")
        assert curve.kind is CurveKind.FULL_LOOP
        with pytest.raises(ValueError):
            MagnetizationCurve(H=np.array([1.0, 2.0]), M=np.zeros(2), kind="loop")

    def test_amplitude_check_warns(self):
        curve = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([0.0, 2.0e6]), kind=CurveKind.FIRST_MAGNETIZATION
        )
        with pytest.warns(NonPhysicalParameterWarning):
            curve.check_amplitude(1.6e6)

    def test_amplitude_check_quiet_within_bound(self, recwarn):
        curve = MagnetizationCurve(
            H=np.array([1.0, 2.0]), M=np.array([0.0, 1.7e6]), kind=CurveKind.FIRST_MAGNETIZATION
        )
        curve.check_amplitude(1.6e6)
        assert not recwarn.list


def _blank_every_1000(n: int, bad_row: int) -> str:
    """Two blank lines, an "H,M" header, then n rows with a blank line before
    rows 1000, 2000, ...; row ``bad_row`` has a non-numeric M cell."""
    lines = ["", "", "H,M"]
    for j in range(n):
        if j and j % 1000 == 0:
            lines.append("")
        lines.append(f"{0.5 * j!r},oops" if j == bad_row else f"{0.5 * j!r},{1.5e3 * j!r}")
    return "\n".join(lines) + "\n"


# Characters that str.splitlines breaks a line on and a curve file does not
_NOT_LINE_BREAKS = {"vt": "\v", "ff": "\f", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
                    "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}


class TestParse:
    def test_comma_with_header(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_file(path, [1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert np.array_equal(curve.H, [1.0, 2.0, 3.0])
        assert np.array_equal(curve.M, [10.0, 20.0, 30.0])

    @pytest.mark.parametrize("sep", [";", "\t", " "])
    def test_other_delimiters(self, tmp_path, sep):
        path = tmp_path / "c.txt"
        write_curve_file(path, [1.0, 2.0], [5.0, 6.0], header=None, sep=sep)
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert np.array_equal(curve.M, [5.0, 6.0])

    def test_round_trip_is_exact(self, tmp_path, steel_curve):
        path = tmp_path / "rt.csv"
        write_curve_file(path, steel_curve.H, steel_curve.M)
        back = parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert np.array_equal(back.H, steel_curve.H)
        assert np.array_equal(back.M, steel_curve.M)

    def test_sorts_monotone_kinds(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("2.0,6.0\n1.0,5.0\n")
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert np.array_equal(curve.H, [1.0, 2.0])

    def test_kind_given_by_value(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("H,M\n200,2\n100,1\n300,3\n")
        curve = parse_curve(path, kind="anhysteretic")
        assert curve.kind is CurveKind.ANHYSTERETIC
        assert np.array_equal(curve.H, [100.0, 200.0, 300.0])
        with pytest.raises(ValueError):
            parse_curve(path, kind="hysteretic")

    def test_loop_order_preserved(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("2.0,6.0\n1.0,5.0\n3.0,1.0\n")
        curve = parse_curve(path, kind=CurveKind.FULL_LOOP)
        assert np.array_equal(curve.H, [2.0, 1.0, 3.0])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,5.0\n\n2.0,6.0\n\n")
        assert len(parse_curve(path, kind=CurveKind.ANHYSTERETIC)) == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,5.0\n2.0,oops\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: non-numeric cell in ") as exc:
            parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "content, line",
        [
            # auto header on line 3, blank and whitespace-only lines among the rows
            ("\n\nH,M\n1.0,5.0\n\n\n2.0,6.0\n \n3.0,oops\n", 9),
            # header on line 3, data row j on line 4 + j + j // 1000: row 4500, in the
            # second 4096-row block, is on line 4508
            (_blank_every_1000(5000, 4500), 4508),
            # line 2 ends after the character, and line 3 is one row with a bad cell
            *((f"H,M\n1,2{c}\n3,4{c}5,6\n", 3) for c in _NOT_LINE_BREAKS.values()),
        ],
        ids=["auto-header", "second-block", *(f"not-a-line-break-{name}" for name in _NOT_LINE_BREAKS)],
    )
    def test_parse_error_line_counts_blank_and_header_lines(self, tmp_path, content, line):
        path = tmp_path / "c.csv"
        path.write_text(content)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: ") as exc:
            parse_curve(path, kind=CurveKind.FULL_LOOP)
        assert exc.value.line == line

    def test_compressed_suffix_read_as_text(self, tmp_path):
        # np.loadtxt would decompress a file with this suffix; jamag reads every file as text
        path = tmp_path / "c.csv.gz"
        path.write_text("H,M\n1.0,5.0\n2.0,6.0\n")
        assert np.array_equal(parse_curve(path, kind=CurveKind.FULL_LOOP).M, [5.0, 6.0])

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,5.0\n2.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: expected at least 2 columns, got 1$") as exc:
            parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert exc.value.line == 2

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e309"])
    @pytest.mark.parametrize("sep", [",", " "], ids=["bulk", "line-by-line"])
    def test_non_finite_cell_names_the_file_and_line(self, tmp_path, cell, sep):
        # "1.0 5.0" then "2.0,x" mixes delimiters, so the whole file is read line by line
        path = tmp_path / "c.csv"
        path.write_text(f"H,M\n1.0{sep}5.0\n2.0,{cell}\n3.0,7.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 3: non-finite cell in ") as exc:
            parse_curve(path, kind=CurveKind.FULL_LOOP)
        assert exc.value.line == 3

    @pytest.mark.parametrize("kind", [CurveKind.ANHYSTERETIC, CurveKind.FIRST_MAGNETIZATION])
    def test_repeated_field_names_the_file_and_the_field(self, tmp_path, kind):
        path = tmp_path / "c.csv"
        path.write_text("H,M\n3.0,7.0\n1.0,5.0\n2.5,6.0\n1.0,5.5\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: field H = 1.0 A/m appears more than once; "
                                            f"{kind.value} curves need strictly increasing H$"):
            parse_curve(path, kind=kind)
        assert len(parse_curve(path, kind=CurveKind.FULL_LOOP)) == 4  # a loop may repeat a field

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("H,M\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no data rows$"):
            parse_curve(path, kind=CurveKind.ANHYSTERETIC)

    def test_unknown_unit(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0,5.0\n")
        with pytest.raises(DataError, match="^unknown unit 'tesla'; expected one of m, j, b$"):
            parse_curve(path, kind=CurveKind.ANHYSTERETIC, unit="tesla")

    def test_polarization_unit(self, tmp_path):
        path = tmp_path / "c.csv"
        j = MU0 * 1.0e4  # J for M = 1e4 A/m
        path.write_text(f"10.0,{j!r}\n20.0,{2 * j!r}\n")
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC, unit="j")
        assert curve.M[0] == pytest.approx(1.0e4, rel=1e-12)

    def test_flux_density_unit(self, tmp_path):
        path = tmp_path / "c.csv"
        b = MU0 * (10.0 + 1.0e4)  # B for H=10, M=1e4
        path.write_text(f"10.0,{b!r}\n")
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC, unit=Unit.B_TESLA)
        assert curve.M[0] == pytest.approx(1.0e4, rel=1e-10)

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n3.0,4.0\n")
        curve = parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert np.array_equal(curve.H, [1.0, 3.0])
        assert np.array_equal(curve.M, [2.0, 4.0])

    @pytest.mark.parametrize("content", [
        b"H,M\r\n1.0,2.0\r\n3.0,4.0\r\n", b"\xef\xbb\xbfH;M\r1.0;2.0\r\r3.0;4.0", b"1.0,2.0\r\n\r3.0,4.0\n\r",
        b"\xef\xbb\xbf1.0,2.0\n\xff\n", b"1.0,2.0\r\n3.0,\xc3(\n", b"\xef\xbb\xbf\xef\xbb", b"\xef\xbbX",
    ])
    def test_decoded_as_a_text_mode_read(self, tmp_path, content):
        # the same text, and the same byte offset of a decoding error
        path = tmp_path / "c.csv"
        path.write_bytes(content)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as err:
            with pytest.raises(ParseError, match=rf"c.csv: not UTF-8 text \(byte {err.start}: {err.reason}\)$"):
                parse_curve(path, kind=CurveKind.FULL_LOOP)
        else:
            clean = tmp_path / "clean.csv"
            clean.write_bytes(text.encode())
            got, want = (parse_curve(p, kind=CurveKind.FULL_LOOP) for p in (path, clean))
            assert (got.H.tobytes(), got.M.tobytes()) == (want.H.tobytes(), want.M.tobytes())

    @pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb"])
    def test_truncated_bom_is_not_utf8(self, tmp_path, content):
        # the one case where a text-mode read differs: it gave "" here, and "no data rows";
        # both are bad input
        path = tmp_path / "bom.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=r"bom.csv: not UTF-8 text \(byte 0: unexpected end of data\)$"):
            parse_curve(path, kind=CurveKind.FULL_LOOP)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("H,M\n1.0,2.0\n# \u00b5 T\n".encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.csv: not UTF-8") as exc:
            parse_curve(path, kind=CurveKind.ANHYSTERETIC)
        assert exc.value.line is None


def _many_rows(n: int, bad_row: int, bad: str) -> str:
    rows = [f"{0.5 * i!r},{1.5e3 * i!r}" for i in range(n)]
    rows[bad_row] = bad
    return "H,M\n" + "\n".join(rows) + "\n"


# (id, file content, parse_curve options, whether the bulk path reads it; None
# when the file has no data row and neither path is taken)
_EQUIVALENCE_CASES = [
    ("comma", "H,M\n1.0,5.0\n2.0,6.0\n", {}, True),
    ("semicolon", "0.1;5e-1\n0.2;7.25\n", {}, True),
    ("tab", "1.0\t5.0\n2.0\t6.0\n", {}, True),
    ("crlf", b"H;M\r\n1.0;5.0\r\n2.0;6.0\r\n", {}, True),
    ("crlf-comma-header", b"H,M\r\n\r\n1.0,5.0\r\n2.0,6.0\r\n", {}, True),
    ("lone-cr", "H,M\r1.0,5.0\r\r2.0,6.0\r", {}, True),
    # numpy reads a whitespace-only line among the rows as one cell: it is given the others
    ("blank-lines", "\n1.0,5.0\n\n   \n\t\n2.0,6.0\n\n", {}, True),
    ("blank-line-last", _many_rows(9000, 0, "0.0,0.0") + "   \n", {}, True),
    ("blank-line-unicode", "1.0;5.0\n\u2028\x85\n2.0;6.0", {}, True),
    ("blank-line-and-bad-cell", "1.0,5.0\n \n2.0,x\n", {}, False),
    ("empty-lines", "\n1.0,5.0\n\n\n2.0,6.0\n\n", {}, True),
    ("blank-lines-before-header", "\n \n\t\n\nH,M\n1.0,5.0\n2.0,6.0\n", {}, True),
    ("bom-non-ascii-header", "\ufeff\u00b50H (T);J (T)\n0.1;0.5\n0.2;0.75\n", {"unit": "j"}, True),
    ("auto-header", "field (A/m);M (A/m)\n1.0;5.0\n2.0;6.0\n", {}, True),
    ("whitespace-header", "H  M\n1.0,5.0\n2.0,6.0\n", {}, True),
    ("padded", " 1.0 , 5.0\t\n2.0,  6.0  \n", {}, True),
    # float reads underscores, numpy does not
    ("underscores", "1_000,2_000.5\n1_001,3e1_0\n", {}, False),
    ("unit-separator-pad", "1.0\x1f,5.0\n2.0,6.0\n", {}, True),
    ("mixed-delimiters", "1.0,5.0\n2.0;6.0\n", {}, False),
    # the third cells are never parsed, so only the delimiter check keeps the bulk
    # reader from splitting "b,c" on ";" where the per-line reader splits it on ","
    ("earlier-delimiter", "1.0;5.0;a\n2.0;6.0;b,c\n", {}, False),
    ("ragged-long", "1.0,5.0\n2.0,6.0,7.0\n", {}, True),
    ("ragged-aligned", "1.0,5.0,0\n2.0\n3.0,6.0,7.0,8.0,9.0\n", {}, False),
    ("ragged-short", "1.0,5.0\n2.0\n", {}, False),
    ("whitespace", "1.0 5.0\n2.0   6.0\n", {}, True),
    ("whitespace-three-columns", "H M B\n1.0 5.0 0\n 2.0  6.0 0 \n", {}, True),
    ("whitespace-then-tab", "1.0 5.0\n2.0\t6.0\n", {}, False),
    ("whitespace-unit-separator", "1.0\x1f5.0\n2.0 6.0\n", {}, True),
    ("whitespace-then-comma", "1.0 5.0\n2.0,6.0\n", {}, False),
    # "6.0 7.0" after the line reader splits on the tab
    ("whitespace-then-padded-tab", "1.0 5.0\n2.0 \t 6.0 7.0\n", {}, False),
    # equal cell counts in total, not per row
    ("whitespace-ragged-aligned", "1.0 5.0 0\n2.0\n3.0 6.0 7.0 8.0 9.0\n", {}, False),
    ("whitespace-one-column", "1.0\n2.0\n", {}, False),
    ("whitespace-bad-cell", "1.0 5.0\n2.0 x\n", {}, False),
    ("whitespace-long-clean", _many_rows(9000, 0, "0.0,0.0").replace(",", " "), {}, True),
    ("bad-first-row", "1.0,abc\n2.0,3.0\n", {}, False),
    ("narrow-header", "H\n1.0,5.0\n", {}, False),
    ("header-only", "H,M\n\n", {}, None),
    ("empty", "", {}, None),
    ("blank-only", "\n \n\x85\n", {}, None),
    # a NaN or infinite cell: the line reader names its line
    ("non-finite", "1.0,nan\n2.0,6.0\n", {}, False),
    ("overflow-cell", "1.0,1e309\n2.0,6.0\n", {}, False),
    # cells numpy and float could read differently, and a row numpy's default drops
    ("comment-row", "1.0,5.0\n# note,x\n2.0,6.0\n", {}, False),
    ("hex-float", "0x1p3,5.0\n2.0,6.0\n", {}, False),
    ("nan-payload", "1.0,nan(1)\n2.0,6.0\n", {}, False),
    ("quoted-cell", '1.0,"5.0"\n2.0,6.0\n', {}, False),
    ("trailing-delimiter", "1.0,5.0,\n2.0,6.0,\n", {}, True),
    ("unit-j", f"10.0,{MU0 * 1.0e4!r}\n20.0,{MU0 * 2.0e4!r}\n", {"unit": "j"}, True),
    ("unit-b", f"10.0,{MU0 * (10.0 + 1.0e4)!r}\n20.0,0.5\n", {"unit": "b"}, True),
    # finite cells whose M overflows in A/m: the line reader names the line
    ("unit-j-overflow", "1.0,1e303\n2.0,2.0\n", {"unit": "j"}, False),
    ("unit-b-overflow", "1.0,2.0\n2.0,-1e303\n", {"unit": "b"}, False),
    ("bad-cell-second-block", _many_rows(5000, 4500, "2250.0,oops"), {}, False),
    ("short-row-second-block", _many_rows(5000, 4200, "2100.0"), {}, False),
    ("long-clean", _many_rows(9000, 0, "0.0,0.0"), {}, True),
    ("semicolon-long-clean", _many_rows(9000, 0, "0.0,0.0").replace(",", ";"), {}, True),
    ("tab-long-clean", _many_rows(9000, 0, "0.0,0.0").replace(",", "\t"), {}, True),
    # a line end on line 2 and two rows joined on line 3: a bad cell on line 3
    *((f"not-a-line-break-{name}", f"H,M\n1.0,5.0{c}\n2.0,6.0{c}3.0,7.0\n", {}, False)
      for name, c in _NOT_LINE_BREAKS.items()),
]


def _outcome(path, kind, kw):
    try:
        curve = parse_curve(path, kind=kind, **kw)
    except Exception as err:  # noqa: BLE001 - the comparison is the point
        return (type(err), str(err), getattr(err, "line", None))
    return (curve.H.tobytes(), curve.M.tobytes(), curve.kind)


@pytest.mark.filterwarnings("error")  # a numpy warning would land in a report's warnings
class TestBulkMatchesLines:
    """``parse_curve`` gives the bits and errors of the per-line reader on every file."""

    @pytest.mark.parametrize("kind", [CurveKind.FULL_LOOP, CurveKind.ANHYSTERETIC])
    @pytest.mark.parametrize(
        "content, kw, bulk", [c[1:] for c in _EQUIVALENCE_CASES], ids=[c[0] for c in _EQUIVALENCE_CASES]
    )
    def test_same_outcome(self, tmp_path, monkeypatch, content, kw, bulk, kind):
        path = tmp_path / "c.txt"
        if isinstance(content, str):
            content = content.encode("utf-8")
        path.write_bytes(content)
        taken = []
        read_bulk = dataio._read_bulk

        def spy(*args):
            columns = read_bulk(*args)
            taken.append(columns is not None)
            return columns

        monkeypatch.setattr(dataio, "_read_bulk", spy)
        got = _outcome(path, kind, kw)
        monkeypatch.setattr(dataio, "_read_bulk", lambda *args: None)
        assert got == _outcome(path, kind, kw)
        assert taken == ([] if bulk is None else [bulk])

    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=40,
        ),
        st.sampled_from([repr, "{:.6e}".format]),
        st.sampled_from([",", ";", "\t", " ", " \x1f "]),
    )
    def test_finite_floats(self, tmp_path_factory, pairs, fmt, delim):
        text = "\n".join(f"{fmt(h)}{delim}{fmt(m)}" for h, m in pairs)
        path = tmp_path_factory.getbasetemp() / "finite_floats.csv"
        path.write_text(text)
        bulk = dataio._read_bulk(path, text, re.match(".*", text), Unit.M_A_PER_M)
        assert bulk is not None
        per_line = dataio._read_lines(path, text, 0, Unit.M_A_PER_M)
        expect = np.array([[float(fmt(h)), float(fmt(m))] for h, m in pairs])
        for got, ref, col in zip(bulk, per_line, expect.T):
            assert got.tobytes() == ref.tobytes() == col.tobytes()


class TestFeaturesType:
    def make(self, **kw):
        base = dict(
            chi_in=50.0, chi_an=500.0, chi_max=1500.0, chi_r=1900.0, chi_m=50.0,
            Hc=120.0, Mr=5.0e5, Hm=5000.0, Mm=1.3e6,
        )
        base.update(kw)
        return LoopFeatures(**base)

    def test_valid(self):
        f = self.make()
        assert f.Hc == 120.0

    def test_negative_susceptibility_rejected(self):
        with pytest.raises(ValueError):
            self.make(chi_r=-1.0)

    def test_zero_susceptibility_warns(self):
        with pytest.warns(NonPhysicalParameterWarning):
            self.make(chi_m=0.0)

    def test_zero_coercive_field_warns(self):
        with pytest.warns(NonPhysicalParameterWarning):
            self.make(Hc=0.0)

    def test_negative_coercive_field_rejected(self):
        with pytest.raises(ValueError):
            self.make(Hc=-5.0)

    def test_remanence_bounded_by_tip(self):
        with pytest.raises(ValueError):
            self.make(Mr=1.4e6)

    def test_tip_field_beyond_coercive(self):
        with pytest.raises(ValueError):
            self.make(Hm=100.0)

    @pytest.mark.parametrize("name, value", [
        ("Mr", np.nan), ("Mm", np.nan), ("Mm", np.inf), ("Hm", np.inf), ("Hm", np.nan),
        ("Hc", np.nan),
    ])
    def test_non_finite_point_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got"):
            self.make(**{name: value})


def triangle_loop(n=60, hmax=100.0):
    """One descent and one ascent with a linear, lossless M."""
    down = np.linspace(hmax, -hmax, n)
    up = np.linspace(-hmax, hmax, n)[1:]
    H = np.concatenate([down, up])
    return MagnetizationCurve(H=H, M=1000.0 * H, kind=CurveKind.FULL_LOOP)


class TestSplitBranches:
    def test_triangle(self):
        (Hd, Md), (Ha, Ma) = split_branches(triangle_loop())
        assert Hd[0] > Hd[-1]
        assert Ha[0] < Ha[-1]
        assert Hd.size == 60 and Ha.size == 60

    def test_last_runs_win(self):
        # two full cycles: the second cycle's branches are returned,
        # each run sharing its turning-point sample with its neighbor
        n = 30
        down = np.linspace(100.0, -100.0, n)
        up = np.linspace(-100.0, 100.0, n)
        H = np.concatenate([down, up[1:], down[1:] + 0.5, up[1:] + 0.5])
        loop = MagnetizationCurve(H=H, M=np.zeros_like(H), kind=CurveKind.FULL_LOOP)
        (Hd, _), (Ha, _) = split_branches(loop)
        assert Hd[0] == pytest.approx(100.0)
        assert Hd[-1] == pytest.approx(-99.5)
        assert Ha[0] == pytest.approx(-99.5)
        assert Ha[-1] == pytest.approx(100.5)

    def test_monotone_input_rejected(self):
        curve = MagnetizationCurve(
            H=np.linspace(0.0, 10.0, 20), M=np.zeros(20), kind=CurveKind.FULL_LOOP
        )
        with pytest.raises(DataError, match="^loop must contain both a descending and an ascending branch$"):
            split_branches(curve)

    def test_short_branch_rejected(self):
        loop = triangle_loop(n=6)
        with pytest.raises(DataError, match="^descending branch has 6 samples; at least 10 required$"):
            split_branches(loop)
        # 10 samples pass, 9 do not; the count includes the shared turning sample
        split_branches(triangle_loop(n=10))
        with pytest.raises(DataError, match="9 samples"):
            split_branches(triangle_loop(n=9))

    def test_plateaus_are_dropped(self):
        # a plateau between the branches and one at the end: each branch keeps
        # only its own end of a plateau (the sample its run starts or stops at)
        down = np.linspace(10.0, -10.0, 11)
        up = np.linspace(-8.0, 10.0, 10)
        H = np.concatenate([down, [-10.0, -10.0], up, [10.0, 10.0]])
        loop = MagnetizationCurve(H=H, M=np.arange(H.size, dtype=float), kind=CurveKind.FULL_LOOP)
        (Hd, Md), (Ha, Ma) = split_branches(loop)
        assert Md.tolist() == list(range(0, 11))
        assert Ma.tolist() == list(range(12, 23))
        assert Hd.tolist() == H[0:11].tolist() and Ha.tolist() == H[12:23].tolist()

    def test_plateau_inside_a_branch_continues_it(self):
        # the repeated 12.0 is a flat step inside the descending run: one run, not two
        H = np.concatenate([np.linspace(30.0, 12.0, 10), [12.0], np.linspace(10.0, -10.0, 11),
                            np.linspace(-8.0, 10.0, 10)])
        loop = MagnetizationCurve(H=H, M=np.arange(H.size, dtype=float), kind=CurveKind.FULL_LOOP)
        (Hd, Md), (Ha, Ma) = split_branches(loop)
        assert Md.tolist() == list(range(0, 22))
        assert Ma.tolist() == list(range(21, 32))

    def test_repeated_field_inside_the_last_branch(self):
        clean, loop = _repeated_field_loops()
        (Hd0, Md0), asc0 = split_branches(clean)
        (Hd, Md), asc = split_branches(loop)
        assert Hd.size == Hd0.size + 1 == 202
        assert (Hd[0], Md[0], Hd[-1], Md[-1]) == (Hd0[0], Md0[0], Hd0[-1], Md0[-1])
        assert np.array_equal(np.delete(Hd, 151), Hd0) and np.array_equal(np.delete(Md, 151), Md0)
        assert all(np.array_equal(a, b) for a, b in zip(asc, asc0))

    def test_dwell_at_the_turning_points_keeps_both_branches(self):
        # each tip of the last cycle held for three samples: the flat stretches belong
        # to no run, so both branches are the clean loop's
        clean, _ = _repeated_field_loops()
        samples = np.arange(clean.H.size)
        keep = np.repeat(samples, np.where(np.isin(samples, (600, 800, 1000)), 3, 1))
        loop = MagnetizationCurve(H=clean.H[keep], M=clean.M[keep], kind=CurveKind.FULL_LOOP)
        for got, want in zip(split_branches(loop), split_branches(clean)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_turning_sample_is_shared(self):
        loop = triangle_loop(n=12)
        loop = MagnetizationCurve(H=loop.H, M=np.arange(loop.H.size, dtype=float),
                                  kind=CurveKind.FULL_LOOP)
        (Hd, Md), (Ha, Ma) = split_branches(loop)
        assert Md[-1] == Ma[0] == 11.0
        assert Hd[-1] == Ha[0] == -100.0

    def test_plateau_only_rejected(self):
        curve = MagnetizationCurve(H=np.full(20, 3.0), M=np.zeros(20), kind=CurveKind.FULL_LOOP)
        with pytest.raises(DataError, match="^loop must contain both a descending and an ascending branch$"):
            split_branches(curve)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_sample_scan(self, seed):
        rng = np.random.default_rng(seed)
        # long monotone stretches with repeated fields mixed in
        steps = np.repeat(rng.choice([-1.0, 0.0, 1.0], 40, p=[0.45, 0.1, 0.45]), rng.integers(1, 30, 40))
        H = np.cumsum(np.concatenate([[0.0], steps]))
        loop = MagnetizationCurve(H=H, M=np.arange(H.size, dtype=float), kind=CurveKind.FULL_LOOP)
        try:
            want = _split_branches_scan(H)
        except DataError as err:
            with pytest.raises(DataError, match=f"^{re.escape(str(err))}$"):
                split_branches(loop)
            return
        (_, Md), (_, Ma) = split_branches(loop)
        assert (Md.tolist(), Ma.tolist()) == want


def _split_branches_scan(H):
    """Per-sample reference of split_branches: sample indices of the last runs, each
    from the first sample of its first moving step to the last of its last one."""
    runs = []  # [start, stop, direction]
    for i, step in enumerate(np.sign(np.diff(H))):
        if step != 0.0 and runs and runs[-1][2] == step:
            runs[-1][1] = i + 2
        elif step != 0.0:
            runs.append([i, i + 2, step])
    desc = [r for r in runs if r[2] < 0.0]
    asc = [r for r in runs if r[2] > 0.0]
    if not desc or not asc:
        raise DataError("loop must contain both a descending and an ascending branch")
    for (start, stop, _), label in ((desc[-1], "descending"), (asc[-1], "ascending")):
        if stop - start < 10:
            raise DataError(f"{label} branch has {stop - start} samples; at least 10 required")
    return list(range(*desc[-1][:2])), list(range(*asc[-1][:2]))


def _repeated_field_loops():
    """A 2-cycle loop of 200 steps per segment, and the same loop with the sample at
    H = -2 500 A/m on its last descending branch (samples 600-800) repeated."""
    p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=1.6e6)
    clean = integrate(p, FieldWaveform.cyclic(5000.0, cycles=2, steps_per_segment=200))
    i = 600 + int(np.flatnonzero(clean.H[600:801] == -2500.0)[0])
    loop = MagnetizationCurve(H=np.insert(clean.H, i, clean.H[i]), M=np.insert(clean.M, i, clean.M[i]),
                              kind=CurveKind.FULL_LOOP)
    return MagnetizationCurve(H=clean.H, M=clean.M, kind=CurveKind.FULL_LOOP), loop


def _crossing_scan(x, y, level=0.0):
    """Per-sample reference of _crossing."""
    s = y - level
    for j in range(s.size - 1):
        if s[j] == 0.0:
            return float(x[j])
        if (s[j] < 0.0) != (s[j + 1] < 0.0):
            frac = s[j] / (s[j] - s[j + 1])
            return float(x[j] + frac * (x[j + 1] - x[j]))
    if s[-1] == 0.0:
        return float(x[-1])
    raise DataError("descending branch never reaches M = 0")


class TestCrossing:
    def test_interpolates_between_samples(self):
        assert _crossing(np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, -1.0])) == 1.5

    def test_sample_on_the_level(self):
        x = np.array([0.1, 0.7, 1.3, 1.9])
        # approached from above: the sample itself is returned
        assert _crossing(x, np.array([2.0, 1.0, 0.0, -1.0])) == 1.3
        # approached from below: interpolated with frac = 1
        assert _crossing(x, np.array([-2.0, -1.0, 0.0, 1.0])) == 0.7 + 1.0 * (1.3 - 0.7)

    def test_first_crossing_wins(self):
        assert _crossing(np.arange(5.0), np.array([1.0, -1.0, 1.0, -1.0, 0.0])) == 0.5

    def test_crossing_only_at_last_sample(self):
        assert _crossing(np.arange(4.0), np.array([3.0, 2.0, 1.0, 0.0])) == 3.0
        assert _crossing(np.array([7.0]), np.array([0.0])) == 7.0

    def test_no_crossing(self):
        with pytest.raises(DataError, match=r"^descending branch never reaches M = 0 \(M from 3 to 0.5 A/m\)$"):
            _crossing(np.arange(4.0), np.array([3.0, 2.0, 1.0, 0.5]))
        with pytest.raises(DataError, match="^descending branch never reaches M = 0"):
            _crossing(np.array([7.0]), np.array([1.0]))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_sample_scan(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-5.0, 5.0, 50))
        y = rng.integers(-1, 16, 50).astype(float) * 0.25  # sparse zeros and sign changes
        for level in (0.0, 0.5, -0.5, 10.0):  # the zero crossings of y - level
            try:
                want = _crossing_scan(x, y, level)
            except DataError:
                with pytest.raises(DataError, match="^descending branch never reaches M = 0"):
                    _crossing(x, y - level)
                continue
            assert _crossing(x, y - level) == want


@pytest.fixture(scope="module")
def curves():
    material = MaterialSpec(Ms=1.6e6, T=303.5)
    p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=material.Ms)
    hmax = 5000.0
    loop = integrate(p, FieldWaveform.cyclic(hmax, cycles=3, steps_per_segment=600))
    rise = integrate(p, FieldWaveform((0.0, hmax), steps_per_segment=600))
    first = MagnetizationCurve(H=rise.H, M=rise.M, kind=CurveKind.FIRST_MAGNETIZATION)
    anh = synthetic_curve(972.0, 1.4e-3, material, 300, hmax)
    return first, loop, anh


def _through_zero(curve):
    """``curve`` (H > 0) extended by its mirror image through the origin."""
    return MagnetizationCurve(H=np.concatenate([-curve.H[::-1], curve.H]),
                              M=np.concatenate([-curve.M[::-1], curve.M]), kind=curve.kind)


class TestExtractFeatures:

    def test_feature_sanity(self, curves):
        first, loop, anh = curves
        f = extract_features(first, loop, anh)
        assert 0.0 < f.Hc < 1000.0
        assert 0.0 < f.Mr < f.Mm <= 1.6e6
        assert f.Hm == pytest.approx(5000.0)
        assert f.chi_in < f.chi_an  # irreversible pinning suppresses the initial rise
        assert f.chi_m < f.chi_max

    def test_coercive_point_is_symmetric(self, curves):
        first, loop, anh = curves
        f = extract_features(first, loop, anh)
        # ascending branch must cross zero at +Hc within one field step
        (Hd, Md), (Ha, Ma) = split_branches(loop)
        j = int(np.argmax(Ma > 0.0))
        frac = Ma[j - 1] / (Ma[j - 1] - Ma[j])
        hc_up = Ha[j - 1] + frac * (Ha[j] - Ha[j - 1])
        step = float(np.max(np.abs(np.diff(Ha))))
        assert abs(hc_up - f.Hc) <= step

    def test_remanence_positive_on_descending_branch(self, curves):
        first, loop, anh = curves
        f = extract_features(first, loop, anh)
        (Hd, Md), _ = split_branches(loop)
        mr_direct = float(np.interp(0.0, Hd[::-1], Md[::-1]))
        assert f.Mr == pytest.approx(abs(mr_direct), rel=1e-12)
        assert mr_direct > 0.0

    def test_tip_is_on_the_last_cycle(self, curves):
        # the initial rise reaches the same field as the later tips, at another M
        first, loop, anh = curves
        f = extract_features(first, loop, anh)
        _, (Ha, Ma) = split_branches(loop)
        assert (f.Hm, f.Mm) == (Ha[-1], Ma[-1]) == (loop.H[-1], loop.M[-1])
        assert f.Mm != loop.M[int(np.argmax(loop.H))]

    def test_repeated_field_keeps_hc_and_mr(self, curves):
        first, _, anh = curves
        clean, loop = _repeated_field_loops()
        want, got = extract_features(first, clean, anh), extract_features(first, loop, anh)
        assert (got.Hc, got.Mr) == (want.Hc, want.Mr)

    def test_tip_ignores_a_higher_initial_rise(self, curves):
        first, _, anh = curves
        p = HysteresisParams(aJ=972.0, alpha=1.4e-3, c=0.1, k=1000.0, Ms=1.6e6)
        loop = integrate(p, FieldWaveform((0.0, 6000.0, -5000.0, 5000.0), steps_per_segment=600))
        f = extract_features(first, loop, anh)
        assert (f.Hm, f.Mm) == (5000.0, loop.M[-1])

    def test_short_support_curves_rejected(self, curves):
        _, loop, anh = curves
        tiny = MagnetizationCurve(
            H=np.linspace(1.0, 5.0, 5), M=np.linspace(1.0, 5.0, 5),
            kind=CurveKind.FIRST_MAGNETIZATION,
        )
        with pytest.raises(DataError, match="^first_mag curve has 5 samples; need 10$"):
            extract_features(tiny, loop, anh)

    def test_loop_not_spanning_zero_rejected(self, curves):
        first, _, anh = curves
        n = 40
        down = np.linspace(100.0, 10.0, n)
        up = np.linspace(10.0, 100.0, n)[1:]
        H = np.concatenate([down, up])
        loop = MagnetizationCurve(H=H, M=np.linspace(1.0, 2.0, H.size), kind=CurveKind.FULL_LOOP)
        with pytest.raises(DataError, match="^descending branch never reaches M = 0"):
            extract_features(first, loop, anh)

    def test_initial_slopes_are_the_five_point_line_from_h_zero(self, curves):
        first, loop, anh = curves
        mirrored = _through_zero(anh)
        f = extract_features(first, loop, mirrored)
        for curve, chi in ((first, f.chi_in), (mirrored, f.chi_an)):
            i = int(np.argmax(curve.H >= 0.0))
            want = np.polyfit(curve.H[i:i + 5], curve.M[i:i + 5], 1)[0]
            assert chi == pytest.approx(want, rel=1e-12)

    def test_slope_window_is_not_a_setting(self, curves):
        with pytest.raises(TypeError):
            extract_features(*curves, slope_points=5)

    def test_mirrored_anhysteretic_has_the_positive_half_slope(self, curves):
        # a curve sampled through zero used to give the slope of its five most negative fields
        first, loop, anh = curves
        assert anh.H[0] > 0.0
        assert extract_features(first, loop, _through_zero(anh)).chi_an == extract_features(first, loop, anh).chi_an

    def test_one_non_negative_field_sample_rejected(self, curves):
        first, loop, anh = curves
        H = np.concatenate([-anh.H[::-1], [0.0]])
        negative = MagnetizationCurve(H=H, M=np.concatenate([-anh.M[::-1], [0.0]]), kind=CurveKind.ANHYSTERETIC)
        with pytest.raises(DataError, match="^anhysteretic curve has 1 samples with H >= 0"):
            extract_features(first, loop, negative)
