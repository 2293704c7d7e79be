"""Data model tests: label views, splits, synthetic generation, CSV."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfcvr import data
from dfcvr.data import (
    PAY_TS_MISSING,
    Dataset,
    Observed,
    Oracle,
    SyntheticConfig,
    arrival_set,
    generate_synthetic,
    labels_of,
    load_csv,
    reversal_set,
    save_csv,
    temporal_split,
    window_split,
)
from dfcvr.errors import ConfigError, DataFormatError


def _dataset(clicks, pays, d=3, seed=0):
    rng = np.random.default_rng(seed)
    clicks = np.asarray(clicks, dtype=np.int64)
    pays = np.asarray(pays, dtype=np.int64)
    return Dataset(rng.standard_normal((clicks.size, d)), clicks, pays)


class TestSampleAndDataset:
    def test_pay_before_click_rejected(self):
        with pytest.raises(DataFormatError, match="pay_ts precedes"):
            _dataset([100], [50])
        with pytest.raises(DataFormatError):  # below the -1 sentinel
            _dataset([100], [-5])

    def test_missing_pay_is_stored_as_the_sentinel(self):
        ds = _dataset([10, 20], [PAY_TS_MISSING, 25])
        np.testing.assert_array_equal(ds.pay_ts, [PAY_TS_MISSING, 25])
        np.testing.assert_array_equal(labels_of(ds, Oracle()), [0.0, 1.0])
        assert len(ds) == 2
        assert ds.feature_dim == 3

    def test_subset_keeps_rows_in_the_given_order(self):
        ds = _dataset([10, 20, 30], [12, PAY_TS_MISSING, 40])
        order = np.array([2, 0, 1])
        picked = ds.subset(order)
        np.testing.assert_array_equal(picked.features, ds.features[order])
        np.testing.assert_array_equal(picked.click_ts, [30, 10, 20])
        np.testing.assert_array_equal(picked.pay_ts, [40, 12, PAY_TS_MISSING])

    def test_columns_are_read_only(self):
        ds = _dataset([10], [12])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_non_finite_features_rejected(self):
        with pytest.raises(DataFormatError, match="non-finite"):
            Dataset(np.array([[np.nan]]), np.array([1]), np.array([-1]))

    def test_window_is_half_open_and_keeps_log_order(self):
        ds = _dataset([30, 10, 20, 40, 20], [PAY_TS_MISSING] * 5)
        picked = ds.window(20, 40)
        np.testing.assert_array_equal(picked.click_ts, [30, 20, 20])
        np.testing.assert_array_equal(picked.features, ds.features[[0, 2, 4]])
        assert len(ds.window(40, 40)) == 0


def _label(click, pay, view):
    """Label of the one-row dataset holding this click under ``view``."""
    pay = PAY_TS_MISSING if pay is None else pay
    return int(labels_of(_dataset([click], [pay], d=1), view)[0])


class TestLabelViews:
    def test_no_conversion_is_negative_under_every_view(self):
        for view in (Observed(300), Observed(600), Oracle()):
            assert _label(100, None, view) == 0

    def test_fake_negative_reverses_under_later_cutoff(self):
        assert _label(100, 500, Observed(300)) == 0
        assert _label(100, 500, Observed(600)) == 1

    def test_true_positive_everywhere(self):
        assert _label(100, 200, Observed(300)) == 1
        assert _label(100, 200, Oracle()) == 1

    def test_cutoff_monotonicity_property(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            click = int(rng.integers(0, 1000))
            pay = (
                None
                if rng.random() < 0.4
                else click + int(rng.integers(0, 2000))
            )
            t1, t2 = sorted(rng.integers(1, 3000, size=2).tolist())
            l1 = _label(click, pay, Observed(t1))
            l2 = _label(click, pay, Observed(t2))
            assert l1 <= l2 <= _label(click, pay, Oracle())

    def test_vectorized_labels_match_scalar(self):
        ds = _dataset(
            [10, 20, 30, 40],
            [PAY_TS_MISSING, 25, 100, 41],
        )
        # Row by row: never converts, converts at 25, at 100, at 41.
        expected = {
            Observed(30): [0, 1, 0, 0],
            Observed(90): [0, 1, 0, 1],
            Oracle(): [0, 1, 1, 1],
        }
        for view, labels in expected.items():
            np.testing.assert_array_equal(
                labels_of(ds, view), np.array(labels, dtype=float)
            )


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 50), st.none() | st.integers(0, 50)),
        min_size=1, max_size=40,
    ),
    cutoff=st.integers(0, 110),
)
def test_labels_of_reads_each_row_against_the_cutoff(rows, cutoff):
    clicks = [click for click, _ in rows]
    pays = [PAY_TS_MISSING if delay is None else click + delay
            for click, delay in rows]
    ds = _dataset(clicks, pays, d=1)
    converts = [pay != PAY_TS_MISSING for pay in pays]
    seen = [c and pay < cutoff for c, pay in zip(converts, pays)]
    np.testing.assert_array_equal(labels_of(ds, Oracle()),
                                  np.array(converts, dtype=float))
    np.testing.assert_array_equal(labels_of(ds, Observed(cutoff)),
                                  np.array(seen, dtype=float))


class TestTemporalSplit:
    def test_half_open_boundaries(self):
        # t=100, t_prime=300, d_test=50: valid [250,300), test [300,350)
        ds = _dataset(
            [99, 100, 250, 299, 300, 349, 350],
            [PAY_TS_MISSING] * 7,
        )
        train, valid, test = temporal_split(ds, 100, 300, 50)
        np.testing.assert_array_equal(train.click_ts, [99])
        np.testing.assert_array_equal(valid.click_ts, [250, 299])
        np.testing.assert_array_equal(test.click_ts, [300, 349])

    def test_empty_split_is_an_error(self):
        ds = _dataset([10, 20, 30], [PAY_TS_MISSING] * 3)
        with pytest.raises(ConfigError):
            temporal_split(ds, 100, 300, 50)

    def test_window_overlap_is_an_error(self):
        ds = _dataset([10, 260, 310], [PAY_TS_MISSING] * 3)
        with pytest.raises(ConfigError):
            temporal_split(ds, 280, 300, 50)

    def test_partition_property(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            clicks = rng.integers(0, 1000, size=300)
            ds = _dataset(clicks, np.full(300, PAY_TS_MISSING), seed=trial)
            t, t_prime, d_test = 400, 800, 100
            if not (
                (clicks < t).any()
                and ((clicks >= 700) & (clicks < 800)).any()
                and ((clicks >= 800) & (clicks < 900)).any()
            ):
                continue
            train, valid, test = temporal_split(ds, t, t_prime, d_test)
            n_covered = len(train) + len(valid) + len(test)
            in_gap = ((clicks >= t) & (clicks < t_prime - d_test)).sum()
            outside = (clicks >= t_prime + d_test).sum()
            assert n_covered + in_gap + outside == 300


class TestWindowSplit:
    def test_training_window_is_cut_at_t_minus_d_test(self):
        # t=200, t_prime=300, d_test=50: core [0,150), fit-valid [150,200)
        ds = _dataset(
            [10, 149, 150, 199, 200, 250, 299, 300, 349],
            [PAY_TS_MISSING] * 9,
        )
        splits = window_split(ds, 200, 300, 50)
        np.testing.assert_array_equal(splits.core.click_ts, [10, 149])
        np.testing.assert_array_equal(splits.fit_valid.click_ts, [150, 199])
        np.testing.assert_array_equal(splits.valid.click_ts, [250, 299])
        np.testing.assert_array_equal(splits.test.click_ts, [300, 349])

    def test_empty_core_or_fit_valid_is_an_error(self):
        for clicks in ([10, 260, 310], [160, 260, 310]):
            ds = _dataset(clicks, [PAY_TS_MISSING] * 3)
            with pytest.raises(ConfigError, match="core"):
                window_split(ds, 200, 300, 50)


class TestReversalSet:
    def test_empty_when_no_conversions_in_window(self):
        ds = _dataset([10, 20], [15, PAY_TS_MISSING])
        assert reversal_set(ds, 100, 200).size == 0

    def test_pay_at_t_included_pay_before_t_excluded(self):
        ds = _dataset([10, 20, 30], [100, 90, 150])
        j = reversal_set(ds, 100, 200)
        # pay at exactly t reverses; pay before t was a true positive
        np.testing.assert_array_equal(j, [0, 2])

    def test_pay_at_t_prime_excluded(self):
        ds = _dataset([10], [200])
        assert reversal_set(ds, 100, 200).size == 0

    def test_requires_ordered_window(self):
        ds = _dataset([10], [20])
        with pytest.raises(ConfigError):
            reversal_set(ds, 200, 100)

    def test_partitions_pre_cutoff_clicks(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = 200
            clicks = rng.integers(0, 500, size=n)
            has_pay = rng.random(n) < 0.6
            pays = np.where(
                has_pay,
                clicks + rng.integers(0, 800, size=n),
                PAY_TS_MISSING,
            )
            ds = _dataset(clicks, pays, seed=trial)
            t, t_prime = 300, 700
            j = set(reversal_set(ds, t, t_prime).tolist())
            pre = np.flatnonzero(clicks < t)
            true_pos = {
                int(i) for i in pre
                if pays[i] != PAY_TS_MISSING and pays[i] < t
            }
            still_neg = {
                int(i) for i in pre
                if pays[i] == PAY_TS_MISSING or pays[i] >= t_prime
            }
            assert j | true_pos | still_neg == set(pre.tolist())
            assert not (j & true_pos) and not (j & still_neg)
            assert not (true_pos & still_neg)


class TestArrivalSet:
    def test_window_membership_and_labels(self):
        ds = _dataset(
            [99, 100, 150, 199, 200],
            [PAY_TS_MISSING, 199, PAY_TS_MISSING, 500, 300],
        )
        arrived, labels = arrival_set(ds, 100, 200)
        np.testing.assert_array_equal(arrived.click_ts, [100, 150, 199])
        # labels observed at t_prime=200: pay 199 < 200 is positive
        np.testing.assert_array_equal(labels, [1.0, 0.0, 0.0])

    def test_empty_window(self):
        ds = _dataset([10], [PAY_TS_MISSING])
        arrived, labels = arrival_set(ds, 100, 200)
        assert len(arrived) == 0
        assert labels.size == 0


class TestGenerateSynthetic:
    def _config(self, **kwargs):
        base = dict(
            n=10_000,
            feature_dim=8,
            target_cvr=0.2227,
            delay_mean_tau=50_000.0,
            horizon=1_000_000,
            drift_angle_per_day=0.0,
            seed=11,
        )
        base.update(kwargs)
        return SyntheticConfig(**base)

    def test_empirical_cvr_near_target(self):
        ds = generate_synthetic(self._config(n=200_000))
        cvr = float(np.mean(ds.pay_ts != PAY_TS_MISSING))
        assert 0.20 <= cvr <= 0.245

    def test_delay_mean_within_five_percent(self):
        ds = generate_synthetic(self._config(n=150_000))
        conv = ds.pay_ts != PAY_TS_MISSING
        delays = (ds.pay_ts - ds.click_ts)[conv]
        assert abs(delays.mean() - 50_000.0) / 50_000.0 < 0.05

    def test_same_seed_reproduces_different_seed_differs(self):
        a = generate_synthetic(self._config())
        b = generate_synthetic(self._config())
        c = generate_synthetic(self._config(seed=12))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.click_ts, b.click_ts)
        np.testing.assert_array_equal(a.pay_ts, b.pay_ts)
        assert not np.array_equal(a.features, c.features)

    def test_zero_drift_is_stationary_in_conversion_rate(self):
        # with no drift, early and late halves convert at the same rate
        ds = generate_synthetic(self._config(n=100_000))
        conv = ds.pay_ts != PAY_TS_MISSING
        early = conv[ds.click_ts < 500_000].mean()
        late = conv[ds.click_ts >= 500_000].mean()
        assert abs(early - late) < 0.01

    def test_invariants_hold(self):
        ds = generate_synthetic(self._config(n=5_000))
        conv = ds.pay_ts != PAY_TS_MISSING
        assert np.all(ds.pay_ts[conv] >= ds.click_ts[conv])
        assert ds.click_ts.min() >= 0
        assert ds.click_ts.max() < 1_000_000

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            self._config(target_cvr=1.5)
        with pytest.raises(ConfigError):
            self._config(n=0)
        with pytest.raises(ConfigError):
            self._config(delay_mean_tau=0.0)


@pytest.fixture
def parses(monkeypatch):
    """The results of every ``_parse_body`` call made by ``load_csv``."""
    numpy_parse = data._parse_body
    parsed = []

    def parse_body(fh, d):
        parsed.append(numpy_parse(fh, d))
        return parsed[-1]

    monkeypatch.setattr(data, "_parse_body", parse_body)
    return parsed


class TestCsvRoundTrip:
    def test_roundtrip_identity(self, tmp_path):
        ds = generate_synthetic(
            SyntheticConfig(
                n=500,
                feature_dim=4,
                target_cvr=0.3,
                delay_mean_tau=1000.0,
                horizon=10_000,
                seed=5,
            )
        )
        path = str(tmp_path / "data.csv")
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.click_ts, ds.click_ts)
        np.testing.assert_array_equal(loaded.pay_ts, ds.pay_ts)

    def test_minus_one_means_missing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0\n5,-1,0.25\n7,9,1.5\n")
        ds = load_csv(str(path))
        np.testing.assert_array_equal(ds.pay_ts, [PAY_TS_MISSING, 9])
        np.testing.assert_array_equal(labels_of(ds, Oracle()), [0.0, 1.0])

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0,f1\n5,-1,0.25,0.5\n7,9,1.5\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(str(path))

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0\nfive,-1,0.25\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(str(path))

    def test_pay_before_click_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0\n100,50,0.25\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("click,pay,f0\n5,-1,0.25\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_csv(str(path))

    def test_golden_bytes(self, tmp_path):
        ds = Dataset(
            np.array([[0.1, 1e-05], [-0.0, 2.5], [1e16, -0.1]]),
            np.array([0, 7, 12]),
            np.array([3, PAY_TS_MISSING, 12]),
        )
        expected = (
            b"click_ts,pay_ts,f0,f1\r\n"
            b"0,3,0.1,1e-05\r\n"
            b"7,-1,-0.0,2.5\r\n"
            b"12,12,1e+16,-0.1\r\n"
        )
        path = tmp_path / "data.csv"
        save_csv(ds, str(path))
        assert path.read_bytes() == expected
        loaded = load_csv(str(path))
        assert loaded.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(loaded.click_ts, ds.click_ts)
        np.testing.assert_array_equal(loaded.pay_ts, ds.pay_ts)

    @pytest.mark.parametrize("row", [
        "99999999999999999999,-1,0.25", "5,99999999999999999999,0.25",
    ])
    def test_timestamp_beyond_int64_names_line(self, tmp_path, row):
        path = tmp_path / "data.csv"
        path.write_text(f"click_ts,pay_ts,f0\n5,-1,0.25\n{row}\n")
        with pytest.raises(DataFormatError, match=":3: .*int64"):
            load_csv(str(path))

    @pytest.mark.parametrize("bad_row, message", [
        ("", "expected 6 columns, got 0"),
        ("100,50,1,2,3,4", "pay_ts 50 precedes click_ts 100"),
        ("100,-1,1,2,x,4", "could not convert string to float: 'x'"),
        ("100,-1,1,2,1e,4", "could not convert string to float: '1e'"),
        ("100,-1,1,2,3,1e400", "non-finite feature value"),
    ])
    def test_bad_row_deep_in_a_large_file_names_line(
        self, tmp_path, bad_row, message
    ):
        ds = generate_synthetic(
            SyntheticConfig(
                n=50_000,
                feature_dim=4,
                target_cvr=0.3,
                delay_mean_tau=1000.0,
                horizon=10_000,
                seed=6,
            )
        )
        path = tmp_path / "data.csv"
        save_csv(ds, str(path))
        lines = path.read_bytes().split(b"\r\n")
        lineno = 43_211
        lines[lineno - 1] = bad_row.encode()
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataFormatError) as info:
            load_csv(str(path))
        assert str(info.value) == f"{path}:{lineno}: {message}"

    def test_saved_file_is_parsed_by_numpy(self, tmp_path, parses):
        ds = _dataset([0, 5, 9], [7, PAY_TS_MISSING, 9])
        path = str(tmp_path / "data.csv")
        save_csv(ds, path)
        loaded = load_csv(path)
        assert parses[0] is loaded
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.pay_ts, ds.pay_ts)

    @pytest.mark.parametrize("bad_row, message", [
        ("100,50,0.5", "pay_ts 50 precedes click_ts 100"),
        ("100,-1,1e400", "non-finite feature value"),
    ])
    def test_rows_dataset_rejects_go_to_the_row_loop(
        self, tmp_path, parses, bad_row, message
    ):
        # numpy reads these rows; Dataset rejects the columns it returns.
        path = tmp_path / "data.csv"
        path.write_bytes(f"click_ts,pay_ts,f0\r\n5,-1,0.25\r\n{bad_row}\r\n"
                         .encode())
        with pytest.raises(DataFormatError) as info:
            load_csv(str(path))
        assert parses == [None]
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_loads_from_a_pipe(self, tmp_path):
        ds = _dataset([0, 5, 9], [7, PAY_TS_MISSING, 9])
        path = tmp_path / "data.csv"
        save_csv(ds, str(path))
        fifo = tmp_path / "clicks.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(path.read_bytes(),)
        )
        writer.start()
        loaded = load_csv(str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.features.tobytes() == ds.features.tobytes()
        np.testing.assert_array_equal(loaded.pay_ts, ds.pay_ts)

    @pytest.mark.parametrize("numpy_path", [True, False])
    def test_byte_order_mark_is_skipped(self, tmp_path, parses,
                                        numpy_path):
        ds = _dataset(np.arange(0, 600, 3), np.full(200, PAY_TS_MISSING))
        plain = tmp_path / "plain.csv"
        save_csv(ds, str(plain))
        body = plain.read_bytes()
        if not numpy_path:  # a space makes the file one for the row loop
            body = body.replace(b",-1,", b", -1,", 1)
            plain.write_bytes(body)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        want = load_csv(str(plain))
        got = load_csv(str(marked))
        assert [p is not None for p in parses] == [numpy_path] * 2
        assert got.features.tobytes() == want.features.tobytes()
        assert got.click_ts.tobytes() == want.click_ts.tobytes()
        assert got.pay_ts.tobytes() == want.pay_ts.tobytes()

    @pytest.mark.parametrize("lineno", [1, 2, 4000])
    def test_bytes_that_are_not_utf8_name_line(self, tmp_path, lineno):
        path = tmp_path / "latin.csv"
        save_csv(_dataset(np.arange(5000), np.full(5000, PAY_TS_MISSING)),
                 str(path))
        lines = path.read_bytes().split(b"\r\n")
        lines[lineno - 1] = lines[lineno - 1].replace(b",", b",\xff", 1)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataFormatError) as err:
            load_csv(str(path))
        assert str(err.value) == f"{path}:{lineno}: not valid UTF-8"


def _decimals(rng, n):
    """Plain decimals ``-?D+(.D+)?`` of 1 to 40 digits, most with a point."""
    out = []
    for _ in range(n):
        whole = "".join(rng.choice(list("0123456789"), rng.integers(1, 21)))
        text = "-" * int(rng.integers(2)) + whole
        if rng.random() < 0.9:
            text += "." + "".join(
                rng.choice(list("0123456789"), rng.integers(1, 21)))
        out.append(text)
    return out


# Decimals halfway between two doubles (float() rounds them to even), a
# zero's sign, and leading zeros beyond the 18-digit bound.
_HALFWAY_AND_SIGNS = [
    "9007199254740993", "-9007199254740995", "4503599627370496.5",
    "-4503599627370497.5", "0.5", "-0.0", "-0", "0", "0000000000000000001.5",
    "-0.000000000000000000001", "123456789012345678.5",
]


class TestBulkParse:
    """``_parse_rows`` reads each field as ``int`` or ``float`` reads it."""

    def _features(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64,
                            endpoint=False).view(np.float64)
        doubles = np.concatenate([
            bits[np.isfinite(bits)], rng.standard_normal(20_000),
            rng.uniform(-1e5, 1e5, 5_000), rng.uniform(-1e-5, 1e-5, 5_000),
        ])
        fields = ([repr(x) for x in doubles.tolist()]
                  + _decimals(rng, 20_000) + _HALFWAY_AND_SIGNS)
        return fields + ["0.0"] * (-len(fields) % 4)

    @pytest.mark.parametrize("wide", [True, False])
    def test_features_read_as_float_reads_them(self, tmp_path, parses,
                                               monkeypatch, wide):
        if not wide:  # as where longdouble is a double
            monkeypatch.setattr(data, "_WIDE", False)
            monkeypatch.setattr(data, "_POW10",
                                data._POW10.astype(np.float64))
        elif not data._WIDE:
            pytest.skip("longdouble is not wider than a double here")
        fields = self._features()
        rows = [",".join(["5", "-1"] + fields[i:i + 4])
                for i in range(0, len(fields), 4)]
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0,f1,f2,f3\r\n"
                        + "\r\n".join(rows) + "\r\n")
        loaded = load_csv(str(path))
        assert parses[0] is loaded
        want = np.array([float(f) for f in fields])
        assert loaded.features.ravel().tobytes() == want.tobytes()

    def test_timestamps_read_as_int_reads_them(self, tmp_path, parses):
        clicks = ["0", "-0", "007", "0000000000000000000000042",
                  "999999999999999999", "9223372036854775807"]
        path = tmp_path / "data.csv"
        path.write_text("click_ts,pay_ts,f0\n" + "".join(
            f"{c},{c},0.5\n" for c in clicks))
        loaded = load_csv(str(path))
        assert parses[0] is loaded
        assert loaded.click_ts.tolist() == [int(c) for c in clicks]
        assert loaded.pay_ts.tolist() == [int(c) for c in clicks]

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_any_block_size_reads_the_same(self, tmp_path, parses,
                                           monkeypatch, block):
        ds = _dataset(np.arange(0, 900, 3), np.full(300, PAY_TS_MISSING))
        path = tmp_path / "data.csv"
        save_csv(ds, str(path))
        # Mixed line ends, and no newline after the last row.
        body = path.read_bytes().replace(b"\r\n", b"\n", 100)[:-2]
        path.write_bytes(body)
        monkeypatch.setattr(data, "_SCAN_BYTES", block)
        loaded = load_csv(str(path))
        assert parses[0] is loaded
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.click_ts.tobytes() == ds.click_ts.tobytes()
        assert loaded.pay_ts.tobytes() == ds.pay_ts.tobytes()
