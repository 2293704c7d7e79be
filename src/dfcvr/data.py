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
import warnings
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .errors import ConfigError, DataFormatError, NumericalError

Timestamp = int

SECONDS_PER_DAY = 86_400

# Serialized sentinel for "no conversion observed in the log".
PAY_TS_MISSING = -1

_INT64_MAX = np.iinfo(np.int64).max

# CSV rows formatted per write by save_csv.
_SAVE_ROWS = 4096

# The bytes save_csv writes, header included, and the block size in which
# load_csv scans a file for them.
_FAST_BYTES = b"0123456789+-.e,\r\nclickpayts_f"
_SCAN_BYTES = 1 << 20


class Dataset:
    """Columnar, read-only store of click events.

    A sample's position in the dataset is its identity: operations that
    report index sets (such as :func:`reversal_set`) refer to row positions
    here. ``pay_ts`` uses -1 internally for missing conversions.
    """

    def __init__(
        self,
        features: np.ndarray,
        click_ts: np.ndarray,
        pay_ts: np.ndarray,
    ) -> None:
        features = np.ascontiguousarray(features, dtype=np.float64)
        click_ts = np.ascontiguousarray(click_ts, dtype=np.int64)
        pay_ts = np.ascontiguousarray(pay_ts, dtype=np.int64)
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
        for arr in (features, click_ts, pay_ts):
            arr.setflags(write=False)
        self._features = features
        self._click_ts = click_ts
        self._pay_ts = pay_ts

    @property
    def features(self) -> np.ndarray:
        return self._features

    @property
    def click_ts(self) -> np.ndarray:
        return self._click_ts

    @property
    def pay_ts(self) -> np.ndarray:
        return self._pay_ts

    @property
    def feature_dim(self) -> int:
        return self._features.shape[1]

    def __len__(self) -> int:
        return self._features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset holding the selected rows, in the given order."""
        return Dataset(
            self._features[indices],
            self._click_ts[indices],
            self._pay_ts[indices],
        )

    def window(self, start: Timestamp, stop: Timestamp) -> "Dataset":
        """The clicks of ``[start, stop)``, in log order; every click-time
        window of the package is cut here."""
        clicks = self._click_ts
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


def temporal_split(
    dataset: Dataset, t: Timestamp, t_prime: Timestamp, d_test: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Split by click time into train / validation / test windows.

    Train is ``[0, t)``, validation is ``[t_prime - d_test, t_prime)``,
    test is ``[t_prime, t_prime + d_test)``.
    """
    if d_test <= 0:
        raise ConfigError("d_test must be positive")
    if t > t_prime - d_test:
        raise ConfigError(
            f"training cutoff t={t} overlaps the validation window "
            f"[{t_prime - d_test}, {t_prime})"
        )
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
    if t >= t_prime:
        raise ConfigError(f"need t < t_prime, got t={t}, t_prime={t_prime}")
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
    if t >= t_prime:
        raise ConfigError(f"need t < t_prime, got t={t}, t_prime={t_prime}")
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
        if self.n <= 0:
            raise ConfigError("n must be positive")
        if self.feature_dim <= 0:
            raise ConfigError("feature_dim must be positive")
        if not 0.0 < self.target_cvr < 1.0:
            raise ConfigError("target_cvr must lie strictly in (0, 1)")
        if self.delay_mean_tau <= 0:
            raise ConfigError("delay_mean_tau must be positive")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


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
    with open(path, "w", newline="") as fh:
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
            if pay < PAY_TS_MISSING:
                raise DataFormatError(
                    f"{path}:{lineno}: pay_ts must be -1 or >= click_ts"
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
    """Parse the rows after the header with numpy, or return ``None``.

    ``None`` hands the file to the row loop in :func:`load_csv`, the only
    reader that names a bad line. numpy's result is returned only where it
    must equal that loop's: the file holds only bytes in :data:`_FAST_BYTES`
    (numpy reads some other bytes that ``int``/``float`` reject), its only
    line ends are ``\\n`` and ``\\r\\n`` (the csv module also ends a row
    at a lone ``\\r``), numpy found one row per line (it skips blank lines,
    which the loop rejects), and :class:`Dataset` accepts the columns (its
    checks accept what the loop accepts). ``fh`` is at the file's start; a
    byte-order mark there is skipped, as the text layer skips it.
    """
    raw = fh.buffer
    if raw.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        raw.seek(0)
    n_lf = n_cr = n_crlf = 0
    last = b""
    while block := raw.read(_SCAN_BYTES):
        if block.endswith(b"\r"):
            block += raw.read(1)
        if block.translate(None, _FAST_BYTES):
            return None
        n_lf += block.count(b"\n")
        n_cr += block.count(b"\r")
        n_crlf += block.count(b"\r\n")
        last = block
    # Lines after the header; the last one may lack its newline.
    n_rows = n_lf - (1 if last.endswith(b"\n") else 0)
    if n_cr != n_crlf or n_rows < 1:
        return None
    fh.seek(0)
    fh.readline()
    dtype = [("c", "i8"), ("p", "i8"), ("f", "f8", (d,))]
    try:
        with warnings.catch_warnings():
            # A warning marks input read loosely: older numpy reads "5.0"
            # as an int with a DeprecationWarning, and blank lines alone
            # give a UserWarning.
            warnings.simplefilter("error")
            table = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar=None,
                dtype=dtype, ndmin=1,
            )
        if table.shape[0] == n_rows:
            return Dataset(table["f"], table["c"], table["p"])
    except (ValueError, Warning, DataFormatError):
        pass
    return None
