"""Click/conversion data model with delayed labels.

A sample is a click event: a feature vector, a click timestamp, and an
optional payment timestamp. Conversions arrive with a delay, so the label
of a sample depends on *when you look*: a click whose payment lands after
the training cutoff is observed as a negative even though it will convert.
Label views make that observation time explicit.

Timestamps are integer seconds. All time windows are half-open `[a, b)`
and are cut by :meth:`Dataset.window`.
"""

from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .errors import (ConfigError, DataFormatError, NumericalError, require,
                     writing)

Timestamp = int

SECONDS_PER_DAY = 86_400

# Serialized sentinel for "no conversion observed in the log".
PAY_TS_MISSING = -1

_INT64_MAX = np.iinfo(np.int64).max

# CSV rows formatted per write by save_csv.
_SAVE_ROWS = 4096

# The bytes save_csv writes, header included, and the block size in which
# load_csv parses a file.
_FAST_BYTES = b"0123456789+-.e,\r\nclickpayts_f"
_SCAN_BYTES = 1 << 18

# A field parsed in bulk holds at most 18 digits after a leading zero, so
# that they fit an int64, and a feature at most 18 after its point.
_MAX_DIGITS = 18
# An x87 or IEEE-quad longdouble holds every such integer m and rounds
# m / 10**k once; the double read off that is float()'s unless it lies
# halfway between two doubles. With a double, only m <= 2**53 is exact.
_WIDE = np.finfo(np.longdouble).nmant in (63, 112)
_POW10 = np.array([10**k for k in range(_MAX_DIGITS + 1)],
                  np.longdouble if _WIDE else np.float64)
_COMMA, _LF, _CR, _MINUS, _DOT, _PLUS, _ZERO, _NINE = b",\n\r-.+09"
# Separators to spaces and points dropped: the digits of each field.
_DIGITS_ONLY = (bytes.maketrans(b",\r", b"  "), b".")


@dataclass(frozen=True, eq=False, repr=False)
class Dataset:
    """Columnar, read-only store of click events.

    A sample's position in the dataset is its identity: operations that
    report index sets (such as :func:`reversal_set`) refer to row positions
    here. ``pay_ts`` uses -1 internally for missing conversions.
    """

    features: np.ndarray
    click_ts: np.ndarray
    pay_ts: np.ndarray

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        click_ts = np.ascontiguousarray(self.click_ts, dtype=np.int64)
        pay_ts = np.ascontiguousarray(self.pay_ts, dtype=np.int64)
        if features.ndim != 2:
            raise DataFormatError("features must be a 2-d array (n, d)")
        n = features.shape[0]
        if click_ts.shape != (n,) or pay_ts.shape != (n,):
            raise DataFormatError(
                "features, click_ts and pay_ts lengths differ"
            )
        if not np.all(np.isfinite(features)):
            raise DataFormatError("features contain non-finite values")
        if n and click_ts.min() < 0:
            raise DataFormatError("click_ts must be non-negative")
        has_pay = pay_ts != PAY_TS_MISSING
        if np.any(pay_ts[has_pay] < click_ts[has_pay]):
            raise DataFormatError("pay_ts precedes click_ts for some samples")
        for name, arr in (("features", features), ("click_ts", click_ts),
                          ("pay_ts", pay_ts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the selected rows, in the given order."""
        return Dataset(
            self.features[indices],
            self.click_ts[indices],
            self.pay_ts[indices],
        )

    def window(self, start: Timestamp, stop: Timestamp) -> "Dataset":
        """The clicks of ``[start, stop)``, in log order; every click-time
        window of the package is cut here."""
        clicks = self.click_ts
        return self.subset(np.flatnonzero((clicks >= start) & (clicks < stop)))


@dataclass(frozen=True)
class Observed:
    """Labels as visible at ``cutoff``: positive iff payment before it.

    The stale model sees ``Observed(t)``; a retrain at the evaluation time
    ``t_prime`` sees ``Observed(t_prime)``.
    """

    cutoff: Timestamp


@dataclass(frozen=True)
class Oracle:
    """Ground-truth labels: positive iff the click ever converts."""


LabelView = Observed | Oracle


def baseline_view(method: str, t: Timestamp, t_prime: Timestamp) -> LabelView:
    """Label view a baseline trains under.

    ``vanilla`` sees labels as of the cutoff ``t``, ``retrain`` as of
    ``t_prime``, and ``oracle`` every eventual conversion.
    """
    return {"vanilla": Observed(t), "retrain": Observed(t_prime),
            "oracle": Oracle()}[method]


def labels_of(dataset: Dataset, view: LabelView) -> np.ndarray:
    """Vectorized labels for every row, as float64 zeros and ones."""
    has_pay = dataset.pay_ts != PAY_TS_MISSING
    if isinstance(view, Oracle):
        return has_pay.astype(np.float64)
    if isinstance(view, Observed):
        return (has_pay & (dataset.pay_ts < view.cutoff)).astype(np.float64)
    raise TypeError(f"unknown label view: {view!r}")


def check_windows(t: Timestamp, t_prime: Timestamp,
                  d_test: int | None = None) -> None:
    """Every split's window rules: ``t < t_prime`` and, given ``d_test``,
    ``d_test > 0`` and a training window ``[0, t)`` longer than ``d_test``
    and clear of the validation window ``[t_prime - d_test, t_prime)``."""
    if not t < t_prime:
        raise ConfigError(f"need t < t_prime, got t={t}, t_prime={t_prime}")
    if d_test is None:
        return
    require("positive", d_test=d_test)
    if t > t_prime - d_test:
        raise ConfigError(f"training window [0, {t}) overlaps the validation "
                          f"window [{t_prime - d_test}, {t_prime})")
    if t <= d_test:
        raise ConfigError("training window too short to carve a "
                          "validation day")


def temporal_split(
    dataset: Dataset, t: Timestamp, t_prime: Timestamp, d_test: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Split by click time into train / validation / test windows.

    Train is ``[0, t)``, validation is ``[t_prime - d_test, t_prime)``,
    test is ``[t_prime, t_prime + d_test)``.
    """
    check_windows(t, t_prime, d_test)
    train = dataset.window(0, t)
    valid = dataset.window(t_prime - d_test, t_prime)
    test = dataset.window(t_prime, t_prime + d_test)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        if len(part) == 0:
            raise ConfigError(f"{name} split is empty for the given windows")
    return train, valid, test


class WindowSplit(NamedTuple):
    """Training windows carved from a log, as built by :func:`window_split`."""

    core: Dataset
    fit_valid: Dataset
    valid: Dataset
    test: Dataset


def window_split(
    dataset: Dataset, t: Timestamp, t_prime: Timestamp, d_test: int
) -> WindowSplit:
    """:func:`temporal_split`, with its training window cut in two.

    ``core`` is ``[0, t - d_test)`` and ``fit_valid`` is ``[t - d_test,
    t)``. Models train on the core and early-stop on fit-valid: the
    post-cutoff ``valid`` window cannot serve a stale view, since none of
    its clicks can have converted before ``t``. ``valid`` and ``test`` are
    the windows of :func:`temporal_split`.
    """
    train_full, valid, test = temporal_split(dataset, t, t_prime, d_test)
    core = train_full.window(0, t - d_test)
    fit_valid = train_full.window(t - d_test, t)
    if len(core) == 0 or len(fit_valid) == 0:
        raise ConfigError(
            "training window cannot be split into core and validation days"
        )
    return WindowSplit(core, fit_valid, valid, test)


def reversal_set(
    dataset: Dataset, t: Timestamp, t_prime: Timestamp
) -> np.ndarray:
    """Indices of pre-``t`` clicks whose payment lands in ``[t, t_prime)``.

    These are exactly the samples labeled 0 under ``Observed(t)`` but 1
    under ``Observed(t_prime)``: the fake negatives whose labels reverse.
    Returns a sorted int64 index array into ``dataset``.
    """
    check_windows(t, t_prime)
    mask = (
        (dataset.click_ts < t)
        & (dataset.pay_ts != PAY_TS_MISSING)
        & (dataset.pay_ts >= t)
        & (dataset.pay_ts < t_prime)
    )
    return np.flatnonzero(mask).astype(np.int64)


def arrival_set(
    dataset: Dataset, t: Timestamp, t_prime: Timestamp
) -> tuple[Dataset, np.ndarray]:
    """Clicks arriving in ``[t, t_prime)`` with labels observed at ``t_prime``.

    Returns the arrived samples and their ``Observed(t_prime)`` labels. The
    result may be empty when no clicks land in the window.
    """
    check_windows(t, t_prime)
    arrived = dataset.window(t, t_prime)
    return arrived, labels_of(arrived, Observed(t_prime))


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for a synthetic click log.

    ``drift_angle_per_day`` rotates the latent weight vector over time;
    zero gives a stationary environment. ``delay_mean_tau`` is the mean of
    the exponential conversion delay, in seconds.
    """

    n: int
    feature_dim: int
    target_cvr: float
    delay_mean_tau: float
    horizon: int
    drift_angle_per_day: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        require("positive", n=self.n, delay_mean_tau=self.delay_mean_tau,
                horizon=self.horizon)
        require("at least 2", feature_dim=self.feature_dim)
        require("in (0, 1)", target_cvr=self.target_cvr)
        require("finite", drift_angle_per_day=self.drift_angle_per_day)
        require("in [0, 2**32)", seed=self.seed)


def _rng(seed: int) -> np.random.Generator:
    # Counter-based generator: a fixed seed fixes the whole stream layout.
    return np.random.Generator(np.random.Philox(key=seed))


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Draw a synthetic click log with exponential conversion delays.

    Features are standard normal. The conversion probability is a sigmoid
    of a linear score whose weight vector slowly rotates when drift is
    enabled; the intercept is bisected so the mean probability matches
    ``target_cvr``. Identical configs produce identical datasets.
    """
    rng = _rng(config.seed)
    n, d = config.n, config.feature_dim

    click_ts = rng.integers(0, config.horizon, size=n, dtype=np.int64)
    features = rng.standard_normal((n, d))

    # Latent direction plus an orthogonal partner spanning the drift plane.
    u1 = rng.standard_normal(d)
    u1 /= np.linalg.norm(u1)
    aux = rng.standard_normal(d)
    u2 = aux - (aux @ u1) * u1
    u2_norm = np.linalg.norm(u2)
    if u2_norm < 1e-12:
        raise NumericalError("degenerate drift plane; try another seed")
    u2 /= u2_norm

    angle = config.drift_angle_per_day * (click_ts / SECONDS_PER_DAY)
    # Per-sample rotated weight: w(t) = cos(a) u1 + sin(a) u2, unit norm.
    score = (features @ u1) * np.cos(angle) + (features @ u2) * np.sin(angle)

    def mean_cvr(intercept: float) -> float:
        return float(np.mean(1.0 / (1.0 + np.exp(-(score + intercept)))))

    lo, hi = -40.0, 40.0
    if not mean_cvr(lo) <= config.target_cvr <= mean_cvr(hi):
        raise NumericalError(
            f"target_cvr {config.target_cvr} not bracketed by intercept "
            f"range [{lo}, {hi}]"
        )
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mean_cvr(mid) < config.target_cvr:
            lo = mid
        else:
            hi = mid
    intercept = 0.5 * (lo + hi)

    probs = 1.0 / (1.0 + np.exp(-(score + intercept)))
    converted = rng.random(n) < probs
    delays = np.rint(rng.exponential(config.delay_mean_tau, size=n))
    pay_ts = np.where(
        converted, click_ts + delays.astype(np.int64), PAY_TS_MISSING
    )
    return Dataset(features, click_ts, pay_ts)


def save_csv(dataset: Dataset, path: str) -> None:
    """Write ``click_ts,pay_ts,f0,...`` rows; floats keep full precision.

    Rows end in ``\\r\\n``. A float is written as its ``repr``, the shortest
    string that reads back to the same value. Rows are formatted
    :data:`_SAVE_ROWS` at a time, so the file is never held in memory whole.
    """
    d = dataset.feature_dim
    row = "%d,%d," + ",".join(["%r"] * d) + "\r\n"
    with writing(path), open(path, "w", newline="") as fh:
        header = ["click_ts", "pay_ts"] + [f"f{i}" for i in range(d)]
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(dataset), _SAVE_ROWS):
            rows = slice(start, start + _SAVE_ROWS)
            fh.write("".join([
                row % (click, pay, *feats)
                for click, pay, feats in zip(
                    dataset.click_ts[rows].tolist(),
                    dataset.pay_ts[rows].tolist(),
                    dataset.features[rows].tolist(),
                )
            ]))


def load_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`save_csv`.

    Errors name the offending 1-based line number. Loading what save_csv
    wrote reproduces the dataset exactly. Hand-written files, with quoted
    fields or spaces around numbers, or a leading UTF-8 byte-order mark,
    load as well. The file must be UTF-8.
    """
    try:
        # Bytes that are not UTF-8 decode to lone surrogates, so that the
        # row loop can name their line instead of failing mid-read.
        fh = open(path, newline="", encoding="utf-8-sig",
                  errors="surrogateescape")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}:1: file is empty") from None
        if not _is_utf8(header):
            raise DataFormatError(f"{path}:1: not valid UTF-8")
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
        # A pipe cannot be read twice, so it goes to the row loop.
        if fh.seekable():
            fh.seek(0)
            dataset = _parse_body(fh, d)
            if dataset is not None:
                return dataset
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
        clicks: list[int] = []
        pays: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not _is_utf8(row):
                raise DataFormatError(f"{path}:{lineno}: not valid UTF-8")
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
            if not all(np.isfinite(feats)):
                raise DataFormatError(
                    f"{path}:{lineno}: non-finite feature value"
                )
            for name, value in (("click_ts", click), ("pay_ts", pay)):
                if value > _INT64_MAX:
                    raise DataFormatError(
                        f"{path}:{lineno}: {name} {value} exceeds the "
                        "int64 range"
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


def _is_utf8(fields: list[str]) -> bool:
    """False if the fields hold bytes that did not decode as UTF-8."""
    try:
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate from surrogateescape
        return False
    return True


def _parse_body(fh: TextIO, d: int) -> Dataset | None:
    """Parse the rows after the header in bulk, or return ``None``.

    ``None`` hands the file to the row loop in :func:`load_csv`, the only
    reader that names a bad line. The bulk parse returns only what that
    loop would: the header is exactly ``click_ts,pay_ts,f0,...``, the rows
    go block by block through :func:`_parse_rows`, and :class:`Dataset`
    accepts the columns (its checks accept what the loop accepts). ``fh``
    is at the file's start; a byte-order mark there is skipped, as the
    text layer skips it.
    """
    raw = fh.buffer
    if raw.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        raw.seek(0)
    header = ",".join(["click_ts", "pay_ts"] + [f"f{i}" for i in range(d)])
    if raw.readline().decode("ascii", "replace") not in (
            header + "\r\n", header + "\n"):
        return None
    blocks, tail = [], b""
    while block := raw.read(_SCAN_BYTES):
        lines, newline, tail = (tail + block).rpartition(b"\n")
        if newline:
            blocks.append(_parse_rows(lines + newline, d))
            if blocks[-1] is None:
                return None
    if tail:  # the last line lacks its newline
        blocks.append(_parse_rows(tail + b"\n", d))
    if not blocks or blocks[-1] is None:
        return None
    try:
        return Dataset(*(np.concatenate(cols) for cols in zip(*blocks)))
    except DataFormatError:
        return None


def _parse_rows(
    lines: bytes, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The features, click and pay columns of ``lines``, each line ending
    in ``\\n``, or ``None`` where the row loop must judge them.

    The lines must hold only bytes in :data:`_FAST_BYTES`, with ``\\r``
    only before ``\\n`` (the csv module also ends a row at a lone ``\\r``),
    and ``d + 2`` non-empty fields each. A field of digits, within
    :data:`_MAX_DIGITS` and after an optional ``-``, with no point in a
    timestamp and at most one in a feature, is read in bulk: its digits
    as one int64, then, for a feature, that integer over a power of ten in
    longdouble (see :data:`_WIDE`). Every other field, and a feature
    halfway between two doubles, is read by ``int`` or ``float`` as the
    row loop reads it; one that they reject, or a timestamp beyond int64,
    gives ``None``.
    """
    letters = lines.translate(None, b"0123456789,-.\r\n")
    if letters.translate(None, _FAST_BYTES):
        return None
    a = np.frombuffer(lines, np.uint8)
    seps = np.flatnonzero((a == _COMMA) | (a == _LF))
    width = d + 2
    row_seps = np.array([_COMMA] * (d + 1) + [_LF], np.uint8)
    if (len(seps) % width
            or not (a[seps].reshape(-1, width) == row_seps).all()):
        return None
    starts = np.concatenate(([0], seps[:-1] + 1))
    ends = seps.copy()
    crlf = a[seps[width - 1::width] - 1] == _CR
    ends[width - 1::width] -= crlf
    neg = a[starts] == _MINUS
    # Letters, 'e' included, and '+'; a '-' after none of them must start
    # its field, or the field is no number.
    other = np.flatnonzero((a > _NINE) | (a == _PLUS) if letters else [])
    if (np.count_nonzero(a == _CR) != crlf.sum()
            or not (ends - starts).all()
            or np.count_nonzero(a == _MINUS)
            != neg.sum() + (a[other + 1] == _MINUS).sum()):
        return None
    is_ts = np.tile(np.arange(width) < 2, len(seps) // width)
    dots = np.flatnonzero(a == _DOT)
    owner = np.searchsorted(ends, dots)
    n_dots = np.bincount(owner, minlength=len(ends))
    n_digits = ends - starts - neg - n_dots
    odd = (n_dots > ~is_ts) | (n_digits < 1) | (
        n_digits - (a[starts + neg] == _ZERO) > _MAX_DIGITS)
    odd[np.searchsorted(ends, other)] = True
    scale = np.zeros(len(ends), np.intp)
    scale[owner] = ends[owner] - dots - 1
    scale[odd] = 0
    text = bytearray(lines)
    for start, stop in zip(starts[odd].tolist(), ends[odd].tolist()):
        text[start:stop] = b"0" * (stop - start)
    ints = np.fromstring(bytes(text).translate(*_DIGITS_ONLY), np.int64,
                         sep=" ")
    exact = ints.astype(_POW10.dtype) / _POW10[scale]
    feats = exact.astype(np.float64)
    # exact lies halfway between feats and a neighbour just where
    # 2 exact - feats is that neighbour, a double other than feats. A
    # zero's sign, as in "-0.0", is float()'s to give.
    halfway = 2 * exact - feats
    redo = odd | ~is_ts & ((halfway != feats) & (
        halfway.astype(np.float64) == halfway) | neg & (ints == 0))
    if not _WIDE:
        redo |= ~is_ts & (np.abs(ints) > 2**53)
    for i in np.flatnonzero(redo).tolist():
        field = lines[starts[i]:ends[i]]
        try:
            if is_ts[i]:
                ints[i] = int(field)
            else:
                feats[i] = float(field)
        except (ValueError, OverflowError):
            return None
    # Copies, so that the blocks' int64 fields are not all kept alive.
    click_ts, pay_ts = ints.reshape(-1, width)[:, :2].T.copy()
    return feats.reshape(-1, width)[:, 2:], click_ts, pay_ts
