import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topofield import (
    FieldStack,
    LeadTime,
    SplitSpec,
    build_climatology,
    build_sample,
    climatology_forecast,
    interannual_dates,
    intra_dates,
    read_manifest,
    sample_lead_times,
    validate_split,
    write_manifest,
)
from topofield.errors import FormatError, InsufficientHistory, MissingDate, MissingDayOfYear
from topofield.temporal import TAU_MAX, TAU_MIN, DualSample, manifest_line


def d(s):
    return dt.date.fromisoformat(s)


def make_4ch_stack(start="2016-01-01", end="2021-12-31", shape=(4, 5), fill=None):
    """Dense daily 4-channel stack with per-date distinguishable values."""
    first, last = d(start), d(end)
    n = (last - first).days + 1
    dates = tuple(first + dt.timedelta(days=k) for k in range(n))
    vals = np.zeros((n, 4, *shape))
    for k in range(n):
        vals[k, 0] = (k % 997) / 997.0 if fill is None else fill
    return FieldStack(dates, vals)


class TestLeadTime:
    @pytest.mark.parametrize("tau", [30, 60, 90])
    def test_accepts_window(self, tau):
        assert LeadTime(tau).tau == tau

    @pytest.mark.parametrize("tau", [29, 91, 0, -5])
    def test_rejects_out_of_window(self, tau):
        with pytest.raises(FormatError):
            LeadTime(tau)


class TestInterannualDates:
    def test_plain_calendar_alignment(self):
        assert interannual_dates(d("2020-03-15")) == [d("2017-03-15"), d("2018-03-15"), d("2019-03-15")]

    def test_leap_day_falls_back_to_feb_28(self):
        assert interannual_dates(d("2020-02-29")) == [d("2017-02-28"), d("2018-02-28"), d("2019-02-28")]

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            interannual_dates(d("2011-06-01"), start=d("2010-01-01"))

    def test_history_inside_dataset_is_fine(self):
        assert interannual_dates(d("2013-06-01"), start=d("2010-01-01"))[0] == d("2010-06-01")


class TestIntraDates:
    def test_tau_30(self):
        assert intra_dates(d("2020-04-10"), LeadTime(30)) == [
            d("2020-01-11"), d("2020-02-10"), d("2020-03-11")
        ]

    def test_tau_90(self):
        assert intra_dates(d("2020-10-01"), LeadTime(90)) == [
            d("2020-01-05"), d("2020-04-04"), d("2020-07-03")
        ]

    def test_spacing_is_exactly_tau(self):
        for tau in (30, 45, 90):
            ds = intra_dates(d("2021-08-15"), LeadTime(tau))
            assert (ds[1] - ds[0]).days == tau
            assert (ds[2] - ds[1]).days == tau

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            intra_dates(d("2010-03-01"), LeadTime(30), start=d("2010-01-01"))


class TestBuildSample:
    def test_complete_stack(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2020-06-01"), LeadTime(45))
        assert sample.inter_dates == (d("2017-06-01"), d("2018-06-01"), d("2019-06-01"))
        assert sample.intra_dates == (
            d("2020-06-01") - dt.timedelta(days=135),
            d("2020-06-01") - dt.timedelta(days=90),
            d("2020-06-01") - dt.timedelta(days=45),
        )
        assert max(sample.input_dates) == d("2020-06-01") - dt.timedelta(days=45)
        assert max(sample.input_dates) < sample.target_date

    def test_missing_date_is_reported(self):
        stack = make_4ch_stack()
        keep = [i for i, day in enumerate(stack.dates) if day != d("2018-06-01")]
        broken = FieldStack(tuple(stack.dates[i] for i in keep), stack.values[keep])
        with pytest.raises(MissingDate) as err:
            build_sample(broken, d("2020-06-01"), LeadTime(45))
        assert err.value.dates == (d("2018-06-01"),)

    def test_target_is_sf_channel(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2020-06-01"), LeadTime(45))
        idx = stack.index_of(d("2020-06-01"))
        assert np.array_equal(sample.target, stack.values[idx, 0])
        assert np.shares_memory(sample.target, stack.values) and not sample.target.flags.writeable

    def test_needs_4_channels(self):
        stack = make_4ch_stack()
        one_ch = FieldStack(stack.dates, stack.values[:, :1])
        with pytest.raises(FormatError):
            build_sample(one_ch, d("2020-06-01"), LeadTime(45))


class TestValidateSplit:
    SPLIT = SplitSpec(frozenset(range(2016, 2020)), frozenset({2020, 2021}))

    def test_test_sample_may_reach_into_train_years(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2020-02-01"), LeadTime(30))
        assert min(sample.input_dates).year == 2017
        assert validate_split(sample, self.SPLIT, "test") is True

    def test_train_sample_with_train_inputs(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2019-12-31"), LeadTime(30))
        assert all(day.year <= 2019 for day in sample.input_dates)
        assert validate_split(sample, self.SPLIT, "train") is True

    def test_train_sample_with_out_of_set_inputs_fails(self):
        stack = make_4ch_stack(start="2013-01-01")
        sample = build_sample(stack, d("2016-02-15"), LeadTime(30))
        # interannual inputs reach 2013-2015, outside the training years
        assert validate_split(sample, self.SPLIT, "train") is False

    def test_wrong_role_year(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2019-06-01"), LeadTime(30))
        assert validate_split(sample, self.SPLIT, "test") is False


class TestSampler:
    def test_uniform_range_and_determinism(self):
        taus = sample_lead_times(500, seed=9)
        values = {t.tau for t in taus}
        assert min(values) >= 30 and max(values) <= 90
        assert values >= {30, 90} or len(values) > 40  # covers the window
        again = sample_lead_times(500, seed=9)
        assert [t.tau for t in again] == [t.tau for t in taus]


class TestClimatology:
    SPLIT = SplitSpec(frozenset({2016, 2017, 2018, 2019}), frozenset({2020, 2021}))

    def test_constant_dataset(self):
        stack = make_4ch_stack(fill=0.25)
        clim = build_climatology(stack, self.SPLIT)
        out = climatology_forecast(clim, d("2020-06-01"))
        assert np.all(out.values == 0.25)

    def test_mean_of_two_years(self):
        dates = (d("2016-06-01"), d("2017-06-01"))
        vals = np.zeros((2, 1, 3, 3))
        vals[0, 0] = 2.0
        vals[1, 0] = 4.0
        stack = FieldStack(dates, vals)
        clim = build_climatology(stack, self.SPLIT)
        assert np.all(climatology_forecast(clim, d("2021-06-01")).values == 3.0)

    def test_test_years_never_contribute(self):
        stack = make_4ch_stack()
        poisoned_vals = stack.values.copy()
        for i, day in enumerate(stack.dates):
            if day.year >= 2020:
                poisoned_vals[i] = 123456.0
        poisoned = FieldStack(stack.dates, poisoned_vals)
        a = build_climatology(stack, self.SPLIT)
        b = build_climatology(poisoned, self.SPLIT)
        for key in a.entries:
            assert np.array_equal(a.entries[key].values, b.entries[key].values)

    def test_feb29_uses_leap_years_only(self):
        stack = make_4ch_stack()
        clim = build_climatology(stack, self.SPLIT)
        leap_indices = [i for i, day in enumerate(stack.dates)
                        if (day.month, day.day) == (2, 29) and day.year in self.SPLIT.train_years]
        expected = np.mean([stack.values[i, 0] for i in leap_indices], axis=0)
        assert np.allclose(clim.entries[(2, 29)].values, expected)

    def test_missing_day_raises_at_query(self):
        dates = (d("2016-06-01"),)
        stack = FieldStack(dates, np.zeros((1, 1, 2, 2)))
        clim = build_climatology(stack, self.SPLIT)
        with pytest.raises(MissingDayOfYear):
            climatology_forecast(clim, d("2020-01-01"))

    def test_lead_time_independence(self):
        stack = make_4ch_stack()
        clim = build_climatology(stack, self.SPLIT)
        a = climatology_forecast(clim, d("2020-07-15"))
        b = climatology_forecast(clim, d("2020-07-15"))
        assert np.array_equal(a.values, b.values)


class TestManifest:
    def test_line_format(self):
        stack = make_4ch_stack()
        sample = build_sample(stack, d("2020-06-01"), LeadTime(45))
        line = manifest_line(sample)
        parts = line.split(",")
        assert parts[0] == "2020-06-01"
        assert parts[1] == "45"
        assert len(parts) == 8

    def test_round_trip(self, tmp_path):
        stack = make_4ch_stack()
        samples = [
            build_sample(stack, d("2020-06-01"), LeadTime(45)),
            build_sample(stack, d("2020-07-01"), LeadTime(60)),
        ]
        path = tmp_path / "manifest.txt"
        write_manifest(path, samples)
        rows = read_manifest(path)
        assert len(rows) == 2
        target, tau, inter, intra = rows[0]
        assert target == d("2020-06-01")
        assert tau.tau == 45
        assert inter == samples[0].inter_dates
        assert intra == samples[0].intra_dates

    def test_bad_date_tau_or_bytes_name_the_manifest(self, tmp_path):
        path = tmp_path / "manifest.txt"
        good = "2020-06-01,45,2017-06-01,2018-06-01,2019-06-01,2020-01-18,2020-03-03,2020-04-17"
        for line in (good.replace("2020-06-01", "x", 1), good.replace(",45,", ",zz,")):
            path.write_text(line + "\n")
            with pytest.raises(FormatError, match="bad manifest line"):
                read_manifest(path)
        path.write_bytes(good.encode() + b"\xff\n")
        with pytest.raises(FormatError, match="is not text"):
            read_manifest(path)


def dual_sample(target: dt.date, tau: int, inter) -> DualSample:
    """A sample with the given dates and empty inputs: all a manifest line records."""
    lead = LeadTime(tau)
    empty = np.zeros((3, 4, 1, 1))
    return DualSample(target, lead, tuple(inter), tuple(intra_dates(target, lead)), empty, empty, empty[0, 0])


@st.composite
def manifest_samples(draw) -> list:
    out = []
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.dates(min_value=dt.date(2, 1, 1)))
        before = st.dates(max_value=target - dt.timedelta(days=1))
        out.append(dual_sample(target, draw(st.integers(TAU_MIN, TAU_MAX)),
                               sorted(draw(st.lists(before, min_size=3, max_size=3)))))
    return out


MANIFEST_PIECES = [b"0", b"1", b"9", b"-", b",", b"W", b"T", b" ", b"+", b"_", b"\n", b"\x00", b"\xff", b"\xc3"]


@given(samples=manifest_samples())
@settings(max_examples=50, deadline=None)
def test_written_manifests_round_trip(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("manifest") / "m.txt"
    write_manifest(path, samples)
    rows = read_manifest(path)
    assert rows == [(s.target_date, s.tau, s.inter_dates, s.intra_dates) for s in samples]
    text = path.read_text()
    write_manifest(path, [dual_sample(t, tau.tau, inter) for t, tau, inter, _ in rows])
    assert path.read_text() == text


@given(samples=manifest_samples(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_manifests_raise_only_format_errors(tmp_path_factory, samples, data):
    path = tmp_path_factory.mktemp("manifest") / "m.txt"
    write_manifest(path, samples)
    blob = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(blob)))
        kind = data.draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        if kind == "insert":
            blob[at:at] = data.draw(st.sampled_from(MANIFEST_PIECES))
        elif kind == "replace":
            blob[at:at + 1] = data.draw(st.sampled_from(MANIFEST_PIECES))
        elif kind == "delete":
            del blob[at:at + data.draw(st.integers(1, 8))]
        else:
            del blob[at:]
    path.write_bytes(bytes(blob))
    try:
        rows = read_manifest(path)
    except FormatError:
        return
    assert all(isinstance(tau, LeadTime) and len(inter) == len(intra) == 3 for _, tau, inter, intra in rows)


def test_sample_inputs_are_read_only_gathers_of_the_stack():
    stack = make_4ch_stack()
    values = stack.values.copy()
    values[:, 1] = 1.0 / 3.0  # valid T codes and C masks that differ by channel
    values[:, 3] = 1.0
    stack = FieldStack(stack.dates, values)
    sample = build_sample(stack, d("2020-06-01"), LeadTime(45))
    for inputs, dates in ((sample.inter_inputs, sample.inter_dates), (sample.intra_inputs, sample.intra_dates)):
        assert inputs.shape == (3, 4, 4, 5) and inputs.dtype == np.float64
        assert np.array_equal(inputs, stack.values[[stack.index_of(day) for day in dates]])
        with pytest.raises(ValueError):
            inputs[0, 0, 0, 0] = 0.5
