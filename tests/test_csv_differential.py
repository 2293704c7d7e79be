"""Differential test of ``load_csv`` against the row-by-row CSV loader.

``_oracle_load_csv`` is the loader as it was before ``load_csv`` parsed
files with numpy. It is the reference: on any input, ``load_csv`` returns
the same arrays, or raises ``DataFormatError`` with the same message. The
one intended difference is a timestamp beyond the int64 range, where the
reference raised a bare ``OverflowError`` and ``load_csv`` names the line.
"""

import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfcvr.data import PAY_TS_MISSING, Dataset, load_csv
from dfcvr.errors import DataFormatError


def _oracle_load_csv(path: str) -> Dataset:
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}:1: file is empty") from None
        if len(header) < 3 or header[0] != "click_ts" or header[1] != "pay_ts":
            raise DataFormatError(
                f"{path}:1: header must start with click_ts,pay_ts and have "
                "at least one feature column"
            )
        d = len(header) - 2
        expected = [f"f{i}" for i in range(d)]
        if header[2:] != expected:
            raise DataFormatError(
                f"{path}:1: feature columns must be named f0..f{d - 1}"
            )
        clicks: list[int] = []
        pays: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {d + 2} columns, "
                    f"got {len(row)}"
                )
            try:
                click = int(row[0])
                pay = int(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if click < 0:
                raise DataFormatError(
                    f"{path}:{lineno}: click_ts must be non-negative"
                )
            if pay != PAY_TS_MISSING and pay < click:
                raise DataFormatError(
                    f"{path}:{lineno}: pay_ts {pay} precedes click_ts {click}"
                )
            if pay < PAY_TS_MISSING:
                raise DataFormatError(
                    f"{path}:{lineno}: pay_ts must be -1 or >= click_ts"
                )
            if not all(np.isfinite(feats)):
                raise DataFormatError(
                    f"{path}:{lineno}: non-finite feature value"
                )
            clicks.append(click)
            pays.append(pay)
            rows.append(feats)
        if not rows:
            raise DataFormatError(f"{path}:1: no data rows")
    return Dataset(
        np.array(rows, dtype=np.float64),
        np.array(clicks, dtype=np.int64),
        np.array(pays, dtype=np.int64),
    )


HEADER = "click_ts,pay_ts,f0,f1"

# Tokens a hand-written or damaged file may hold. Some are ones numpy's
# parser and int()/float() read differently: \x1c is whitespace to numpy
# only, and numpy's int parser reads some non-ASCII letters as digits.
INT_EDGE = [
    "5_0", "5.0", "5e0", " 5", "5 ", '"5"', '"5,5"', "+5", "-0", "05", "",
    "x", "nan", "99999999999999999999", "-99999999999999999999",
    "9223372036854775807", "9223372036854775808", "٥", "Ǿ5",
    "\x1c5", "5-3", "-", "--5", "0000000000000000000000042",
]
FLOAT_EDGE = [
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-0.0", "5.0", "5",
    "5_0", " 0.5", "0.5 ", '"0.5"', '"0,5"', "0x1p3", "", "1e", ".5", "5.",
    "+.5e-3", "Ǿ", "\x1c0.5", "99999999999999999999", "1-2", "0.5-", "--5",
    "-", ".", "-.5", "1.2.3", "1.-5", "1e-5", "1e+5", "9007199254740993",
]


# Shortest round-trip forms, as save_csv writes, and plain decimals of up
# to 44 digits, as the bulk parse reads.
FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?[0-9]{1,22}(\.[0-9]{1,22})?", fullmatch=True),
)


@st.composite
def _valid_row(draw):
    click = draw(st.integers(0, 10**12))
    pay = draw(st.one_of(st.just(-1), st.integers(click, click + 10**6)))
    return [str(click), str(pay), draw(FLOAT), draw(FLOAT)]


@st.composite
def csv_texts(draw):
    """A header and up to eight rows, a few of them damaged."""
    rows = draw(st.lists(_valid_row(), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(row)))
        if j < len(row):
            row[j] = draw(st.sampled_from(INT_EDGE if j < 2 else FLOAT_EDGE))
        else:
            # A blank line or a wrong column count.
            row[:] = draw(st.lists(FLOAT, max_size=5).filter(
                lambda fields: len(fields) != 4))
    lines = [HEADER] + [",".join(row) for row in rows]
    style = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    eols = [
        draw(st.sampled_from(["\n", "\r\n", "\r"])) if style == "mixed"
        else style
        for _ in lines
    ]
    if draw(st.booleans()):
        eols[-1] = ""
    return "".join(line + eol for line, eol in zip(lines, eols))


def _outcome(load, path):
    try:
        ds = load(path)
    except DataFormatError as exc:
        return "error", str(exc)
    except OverflowError:
        return "overflow", None
    return "ok", (ds.features.tobytes(), ds.features.shape,
                  ds.click_ts.tolist(), ds.pay_ts.tolist())


def _error_line(message, path):
    return int(re.match(re.escape(path) + r":(\d+):", message).group(1))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential") / "data.csv")


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
# One file per guard of the numpy path: a lone \r, a blank line, bytes
# numpy reads differently, a value the row checks reject, and a timestamp
# beyond int64.
@example(text=HEADER + "\n\r0,-1,0.0,0.0\n")
@example(text=HEADER + "\r\n1,-1,0.5,0.5\r\n\r\n2,3,0.5,0.5\r\n")
@example(text=HEADER + "\n\x1c5,-1,0.5,0.5\n")
@example(text=HEADER + "\n5,-1,0.5,0.5\nǾ5,-1,0.5,0.5")
@example(text=HEADER + "\n7,-1,0.5,1e400\n")
@example(text=HEADER + "\n99999999999999999999,-1,0.5,0.5\n")
# And one per guard of the bulk parse: an empty field, a '-' inside a
# number, two points, rows whose field counts add up to whole rows, and
# points at a number's ends, which float() reads.
@example(text=HEADER + "\n1,-1,,0.5\n")
@example(text=HEADER + "\n1,-1,1-2,0.5\n")
@example(text=HEADER + "\n1,-1,1.2.3,0.5\n")
@example(text=HEADER + "\n1,-1,5\n2,3,4,5,6\n")
@example(text=HEADER + "\n1,-1,-.5,5.\n")
def test_load_csv_agrees_with_the_row_loop(csv_path, text):
    path = csv_path
    with open(path, "w", newline="") as fh:
        fh.write(text)
    expected = _outcome(_oracle_load_csv, path)
    got = _outcome(load_csv, path)
    if expected[0] == "overflow" or "int64 range" in str(got[1]):
        # The reference let a timestamp beyond int64 through and overflowed
        # at the end, unless a later row failed first.
        assert got[0] == "error" and "int64 range" in got[1]
        assert expected[0] == "overflow" or (
            expected[0] == "error"
            and _error_line(expected[1], path) > _error_line(got[1], path)
        )
    else:
        assert got == expected
