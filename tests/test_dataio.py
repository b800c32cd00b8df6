"""CSV ingestion, row-accurate validation, round-trips, daily returns."""

import csv
import datetime as dt
import errno
import gc
import hashlib
import io

import pytest

from clbacktest import (
    BarSeries,
    DataError,
    HourlyBar,
    UsageError,
    average_daily_return,
    clip_window,
    daily_fee_returns,
    load_bars,
    pair_for_class,
    save_bars,
)
from clbacktest import dataio
from clbacktest.dataio import DailyReturnPoint
from helpers import CSV_HEADER, bench_csv, csv_text, make_bars, seeded_series

VOLATILE = pair_for_class("volatile")

GOOD_CSV = csv_text(
    [
        (1600000000, 2000.0, 1e6, 1e4, 5e7),
        (1600003600, 2010.0, 2e6, 1.1e4, 5.1e7),
        (1600007200, 1990.0, 1.5e6, 0.9e4, 4.9e7),
    ]
)


def _series(bars, fee_rate=0.003):
    return BarSeries(pair=VOLATILE, fee_rate=fee_rate, bars=bars)


@pytest.fixture(params=(1, 2, 7, None), ids=("block1", "block2", "block7", "default"))
def block_rows(request, monkeypatch):
    """Ingest's block size: small ones put defects on blocks' first and last rows."""
    if request.param is not None:
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", request.param)
    return dataio._BLOCK_ROWS


class TestLoadBars:
    def test_happy_path(self):
        series = load_bars(io.StringIO(GOOD_CSV), VOLATILE, 0.003)
        assert len(series.bars) == 3
        assert series.fee_rate == 0.003
        assert series.bars[0] == HourlyBar(
            timestamp=1600000000, price=2000.0, volume=1e6, pool_liquidity=1e4, tvl=5e7
        )

    def test_accepts_byte_streams(self):
        series = load_bars(io.BytesIO(GOOD_CSV.encode()), VOLATILE, 0.003)
        assert len(series.bars) == 3

    def test_a_byte_stream_is_left_open(self):
        good, bad = io.BytesIO(GOOD_CSV.encode()), io.BytesIO(b"timestamp,price\n")
        load_bars(good, VOLATILE, 0.003)
        with pytest.raises(DataError, match="missing column"):
            load_bars(bad, VOLATILE, 0.003)
        gc.collect()  # runs the finalizer of any text wrapper left behind
        assert (good.closed, bad.closed) == (False, False)

    def test_reads_from_a_path(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(GOOD_CSV)
        series = load_bars(path, VOLATILE, 0.003)
        assert len(series.bars) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_bars(tmp_path / "absent.csv", VOLATILE, 0.003)

    def test_a_read_failure_names_the_source(self, block_rows):
        class FailingStream(io.StringIO):
            """Yields the header, then fails as a device read would."""

            def __next__(self):
                if self.tell():
                    raise OSError(errno.EIO, "Input/output error")
                return super().__next__()

        with pytest.raises(DataError) as caught:
            load_bars(FailingStream(GOOD_CSV), VOLATILE, 0.003)
        assert str(caught.value) == "cannot read <stream>: [Errno 5] Input/output error"

    def test_undecodable_bytes_and_oversized_fields(self):
        with pytest.raises(DataError, match="not UTF-8"):
            load_bars(io.BytesIO(GOOD_CSV.encode() + b"\xff\n"), VOLATILE, 0.003)
        oversized = GOOD_CSV + "1600010800,2000.0,1.0,1.0," + "9" * 200_000 + "\n"
        with pytest.raises(DataError, match="malformed CSV"):
            load_bars(io.StringIO(oversized), VOLATILE, 0.003)

    def test_negative_volume_names_row_two(self):
        text = csv_text(
            [
                (1600000000, 2000.0, 1e6, 1e4, ""),
                (1600003600, 2010.0, -1, 1e4, ""),
                (1600007200, 1990.0, 1e6, 1e4, ""),
            ]
        )
        with pytest.raises(DataError, match="row 2.*volume"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_unsorted_timestamps_name_the_row(self):
        text = csv_text(
            [
                (1600003600, 2000.0, 1e6, 1e4, ""),
                (1600000000, 2010.0, 1e6, 1e4, ""),
            ]
        )
        with pytest.raises(DataError, match="row 2.*increase"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_duplicate_timestamp_rejected(self):
        text = csv_text(
            [
                (1600000000, 2000.0, 1e6, 1e4, ""),
                (1600000000, 2010.0, 1e6, 1e4, ""),
            ]
        )
        with pytest.raises(DataError, match="row 2"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_missing_column(self):
        text = "timestamp,volume,pool_liquidity,tvl\n1600000000,1.0,2.0,\n"
        with pytest.raises(DataError, match="missing column.*price"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_unknown_column(self):
        text = "timestamp,price,volume,pool_liquidity,tvl,notes\n"
        text += "1600000000,2000.0,1.0,2.0,,hello\n"
        with pytest.raises(DataError, match="unknown column"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_tvl_column_may_be_absent(self):
        text = "timestamp,price,volume,pool_liquidity\n1600000000,2000.0,1.0,2.0\n"
        series = load_bars(io.StringIO(text), VOLATILE, 0.003)
        assert series.bars[0].tvl is None

    def test_non_numeric_price_names_row(self):
        text = csv_text([(1600000000, "soon", 1e6, 1e4, "")])
        with pytest.raises(DataError, match="row 1.*price"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_non_integer_timestamp(self):
        text = csv_text([(1600000000.5, 2000.0, 1e6, 1e4, "")])
        with pytest.raises(DataError, match="row 1.*timestamp"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_non_finite_values_rejected(self):
        for cell in ("inf", "nan", "-inf"):
            text = csv_text([(1600000000, cell, 1e6, 1e4, "")])
            with pytest.raises(DataError, match="row 1"):
                load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_short_row_rejected(self):
        text = "timestamp,price,volume,pool_liquidity,tvl\n1600000000,2000.0,1.0\n"
        with pytest.raises(DataError, match="row 1.*fields"):
            load_bars(io.StringIO(text), VOLATILE, 0.003)

    def test_empty_file_and_header_only(self):
        with pytest.raises(DataError, match="empty"):
            load_bars(io.StringIO(""), VOLATILE, 0.003)
        with pytest.raises(DataError, match="no data rows"):
            load_bars(io.StringIO("timestamp,price,volume,pool_liquidity,tvl\n"), VOLATILE, 0.003)

    def test_bad_fee_rate(self):
        with pytest.raises(UsageError):
            load_bars(io.StringIO(GOOD_CSV), VOLATILE, 1.0)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "exported.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD_CSV.encode())
        expected = load_bars(io.StringIO(GOOD_CSV), VOLATILE, 0.003).bars
        for source in (path, io.BytesIO(path.read_bytes()), io.StringIO("\ufeff" + GOOD_CSV)):
            assert load_bars(source, VOLATILE, 0.003).bars == expected
        with pytest.raises(DataError, match="missing column"):
            load_bars(io.StringIO("\ufeff\ufeff" + GOOD_CSV), VOLATILE, 0.003)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((1600003600, "nan", 1e6, 1e4, 5e7), "row 2: price must be finite, got 'nan'"),
            ((1600003600, 2000.0, "abc", 1e4, 5e7), "row 2: volume must be a number, got 'abc'"),
            ((1600003600, 2000.0, 1e6, 0, 5e7), "row 2: pool_liquidity must be finite and > 0, got 0.0"),
            ((1600003600, 2000.0, 1e6, 1e4, " -1 "), "row 2: tvl must be finite and >= 0, got -1.0"),
            ((1600003600, -1, "abc", 1e4, 5e7), "row 2: volume must be a number, got 'abc'"),
            ((1600000000, -1, 1e6, 1e4, 5e7), "row 2: price must be finite and > 0, got -1.0"),
            (
                (1600000000, 2000.0, 1e6, 1e4, 5e7),
                "row 2: timestamp 1600000000 does not increase over previous 1600000000",
            ),
        ],
    )
    def test_first_defect_of_a_row_wins(self, block_rows, row, message):
        rows = [(1600000000, 2000.0, 1e6, 1e4, 5e7), row, (1600000000, "x", "", "", "")]
        with pytest.raises(DataError) as excinfo:
            load_bars(io.StringIO(csv_text(rows)), VOLATILE, 0.003)
        assert str(excinfo.value) == message

    def test_bad_row_wins_over_a_later_unreadable_one(self, block_rows):
        text = _long_csv(bad_row_2=True)
        source = io.StringIO(text + "1600000000,2000.0,1.0,1.0," + "9" * 200_000 + "\n")
        with pytest.raises(DataError) as excinfo:
            load_bars(source, VOLATILE, 0.003)
        assert str(excinfo.value) == BAD_ROW_2

    # The decoder reads 8 KB blocks: bytes 8191 and 8192 lie on either side
    # of the first block's end, so either side must give the same report.
    @pytest.mark.parametrize("where", ("row 3", "8191", "8192", "last row"))
    @pytest.mark.parametrize("bad_row_2", (False, True), ids=("clean", "bad_row_2"))
    @pytest.mark.parametrize("kind", ("path", "bytes"))
    def test_undecodable_byte_is_reported_in_row_order(
        self, tmp_path, block_rows, kind, bad_row_2, where
    ):
        text = _long_csv(bad_row_2)
        lines = text.splitlines(keepends=True)
        offsets = {
            "row 3": len("".join(lines[:3])) + 3,
            "8191": 8191,
            "8192": 8192,
            "last row": len(text) - 3,
        }
        offset = offsets[where]
        data = text[:offset].encode() + b"\xff" + text[offset:].encode()
        assert data.index(b"\xff") == offset
        row = text[:offset].count("\n")
        assert row >= 3
        message = BAD_ROW_2 if bad_row_2 else f"row {row}: not UTF-8 text"
        with pytest.raises(DataError) as excinfo:
            load_bars(_byte_source(tmp_path, kind, data), VOLATILE, 0.003)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("kind", ("path", "bytes"))
    def test_undecodable_byte_in_the_header(self, tmp_path, kind):
        data = GOOD_CSV.replace("price", "pr\udcffice").encode("utf-8", "surrogateescape")
        source = _byte_source(tmp_path, kind, data)
        label = str(tmp_path / "bars.csv") if kind == "path" else "<stream>"
        with pytest.raises(DataError) as excinfo:
            load_bars(source, VOLATILE, 0.003)
        assert str(excinfo.value) == f"{label}: not UTF-8 text in the header"


BAD_ROW_2 = "row 2: volume must be finite and >= 0, got -1.0"


def _long_csv(bad_row_2: bool) -> str:
    """400 seeded rows (over 16 KB), row 2 with a negative volume if asked."""
    rows = [(ts, p, v, lq, "") for ts, p, v, lq in seeded_series("volatile", count=400)]
    if bad_row_2:
        rows[1] = (rows[1][0], rows[1][1], -1.0, rows[1][3], "")
    text = csv_text(rows)
    assert len(text) > 16_384
    return text


def _byte_source(tmp_path, kind: str, data: bytes):
    if kind == "bytes":
        return io.BytesIO(data)
    path = tmp_path / "bars.csv"
    path.write_bytes(data)
    return path


def _seeded_rows() -> list[list[str]]:
    rows = []
    for i, (ts, price, volume, liquidity) in enumerate(seeded_series("volatile", count=30)):
        tvl = "" if i % 3 == 1 else repr(2 * liquidity)
        rows.append([str(ts), repr(price), repr(volume), repr(liquidity), tvl])
    return rows


def _corruptions(position: int):
    """Seeded rows with one defect at data row ``position`` (0-based)."""
    # str.strip drops the separators \x1c..\x1f; int and float alone reject them.
    cells = ("nan", "inf", "-1", "0", "", "abc", " 2000.5 ", "1_000", "1e400", "\x1c5\x1f")
    for column in range(5):
        for cell in cells:
            rows = _seeded_rows()
            rows[position][column] = cell
            yield f"column {column} = {cell!r}", rows
    rows = _seeded_rows()
    rows[position] = rows[position][:3]
    yield "short row", rows
    rows = _seeded_rows()
    rows[position] = []
    yield "blank line", rows
    neighbour = position - 1 if position else position + 1
    rows = _seeded_rows()
    rows[position][0] = rows[neighbour][0]
    yield "repeated timestamp", rows
    rows = _seeded_rows()
    rows[position][0] = str(int(rows[neighbour][0]) + (-7200 if position else 7200))
    yield "decreasing timestamp", rows


def _bars_of(rows: list[list[str]]) -> tuple[HourlyBar, ...]:
    return tuple(
        HourlyBar(
            int(ts.strip()),
            float(price.strip()),
            float(volume.strip()),
            float(liquidity.strip()),
            float(tvl.strip()) if tvl.strip() else None,
        )
        for ts, price, volume, liquidity, tvl in rows
    )


@pytest.mark.parametrize("position", [0, 6, 7, 14, 29])
def test_column_checks_agree_with_the_row_reporter(block_rows, position):
    """Each defect is the row reporter's error, or the bars are accepted."""
    errors = 0
    for case, rows in _corruptions(position):
        text = csv_text(rows)
        header, *data = csv.reader(io.StringIO(text))
        try:
            dataio._raise_first_error(data, dataio._column_index(header, "<stream>"), 1, None)
        except DataError as exc:
            errors += 1
            with pytest.raises(DataError) as excinfo:
                load_bars(io.StringIO(text), VOLATILE, 0.003)
            assert str(excinfo.value) == str(exc), case
        else:
            bars = load_bars(io.StringIO(text), VOLATILE, 0.003).bars
            assert bars == _bars_of(rows), case
            assert all(type(bar) is HourlyBar for bar in bars), case
    assert 0 < errors < 54


def _filled_rows(count: int, header=CSV_HEADER) -> list[list[str]]:
    """``count`` seeded rows as cells, every ``tvl`` filled in."""
    rows = []
    for ts, price, volume, liquidity in seeded_series("volatile", count=count):
        rows.append([str(ts), repr(price), repr(volume), repr(liquidity), repr(2 * liquidity)])
    return [row[: len(header)] for row in rows]


@pytest.mark.parametrize("step", (0, -3600))
def test_a_timestamp_that_does_not_increase_at_a_block_start(block_rows, step):
    rows = _filled_rows(2 * block_rows + 1)
    rows[block_rows][0] = str(int(rows[block_rows - 1][0]) + step)
    with pytest.raises(DataError) as excinfo:
        load_bars(io.StringIO(csv_text(rows)), VOLATILE, 0.003)
    assert str(excinfo.value) == (
        f"row {block_rows + 1}: timestamp {rows[block_rows][0]} does not increase "
        f"over previous {rows[block_rows - 1][0]}"
    )


@pytest.mark.parametrize("blank", ("", "  "))
def test_a_blank_tvl_only_in_a_later_block(block_rows, blank):
    rows = _filled_rows(2 * block_rows + 1)
    rows[-1][4] = blank
    bars = load_bars(io.StringIO(csv_text(rows)), VOLATILE, 0.003).bars
    assert bars == _bars_of(rows)
    assert [bar.tvl is None for bar in bars] == [False] * (2 * block_rows) + [True]


def test_no_tvl_column_over_several_blocks(block_rows):
    header = CSV_HEADER[:4]
    rows = _filled_rows(3 * block_rows + 1, header)
    bars = load_bars(io.StringIO(csv_text(rows, header)), VOLATILE, 0.003).bars
    assert bars == _bars_of([row + [""] for row in rows])
    assert all(type(bar) is HourlyBar and bar.tvl is None for bar in bars)


@pytest.mark.parametrize("bad_row", (False, True), ids=("clean", "bad_row"))
def test_a_csv_error_in_a_later_block(block_rows, bad_row):
    """A clean block, then one whose last row cannot be read; a bad row read
    just before that one is reported in its place, by its row number."""
    rows = _filled_rows(2 * block_rows - 1)
    if bad_row:
        rows[-1][2] = "-1"
    text = csv_text(rows) + "1600000000,2000.0,1.0,1.0," + "9" * 200_000 + "\n"
    with pytest.raises(DataError) as excinfo:
        load_bars(io.StringIO(text), VOLATILE, 0.003)
    if bad_row:
        assert str(excinfo.value) == f"row {len(rows)}: volume must be finite and >= 0, got -1.0"
    else:
        assert str(excinfo.value) == (
            "<stream>: malformed CSV: field larger than field limit (131072)"
        )


# sha256 of ``repr(bars)`` of ``bench/gen.py``'s seed-0 two-year volatile
# series (17 520 rows, several ingest blocks); captured before ingest read
# rows in blocks, and never regenerated.
TWO_YEAR_BARS_DIGEST = "c49d5845826099c14450ca59aaabf4c329efc889b68684f7e9f9a25d0f2ce3f8"


@pytest.mark.parametrize("kind", ("path", "bytes", "text"))
def test_a_multi_block_file_loads_bit_for_bit(tmp_path, kind):
    text = bench_csv("volatile", 2 * 8760, 0.003)
    if kind == "text":
        source = io.StringIO(text)
    else:
        source = _byte_source(tmp_path, kind, text.encode())
    bars = load_bars(source, VOLATILE, 0.003).bars
    assert len(bars) == 2 * 8760 > 2 * dataio._BLOCK_ROWS
    assert hashlib.sha256(repr(bars).encode()).hexdigest() == TWO_YEAR_BARS_DIGEST


class TestRoundTrip:
    def test_save_then_load_is_lossless(self, tmp_path):
        bars = make_bars(
            prices=[2000.123456789012, 1999.0000000001, 0.1],
            volumes=[1e6, 0.0, 7.000000000000001e-07],
            liquidity=[1e4, 9.87654321e3, 1.0],
            tvls=[5e7, None, 0.3],
        )
        series = _series(bars)
        path = tmp_path / "round.csv"
        save_bars(series, path)
        loaded = load_bars(path, VOLATILE, 0.003)
        assert loaded.bars == series.bars

    def test_round_trip_via_stream(self):
        series = load_bars(io.StringIO(GOOD_CSV), VOLATILE, 0.003)
        buffer = io.StringIO()
        save_bars(series, buffer)
        reloaded = load_bars(io.StringIO(buffer.getvalue()), VOLATILE, 0.003)
        assert reloaded.bars == series.bars


class TestClipWindow:
    def test_filters_by_utc_date(self):
        # Epoch 1600000000 is 2020-09-13 12:26:40 UTC; of the 30 hourly bars
        # the ones with index 12..29 fall on the 14th.
        bars = make_bars([1.0] * 30, start=1600000000, step=3600)
        series = _series(bars)
        one_day = clip_window(series, dt.date(2020, 9, 14), dt.date(2020, 9, 14))
        assert all(
            dt.datetime.fromtimestamp(b.timestamp, tz=dt.timezone.utc).date()
            == dt.date(2020, 9, 14)
            for b in one_day.bars
        )
        assert len(one_day.bars) == 18

    def test_open_ended_bounds(self):
        bars = make_bars([1.0] * 30, start=1600000000, step=3600)
        series = _series(bars)
        assert clip_window(series, None, None) is series
        tail = clip_window(series, dt.date(2020, 9, 14), None)
        head = clip_window(series, None, dt.date(2020, 9, 13))
        assert len(tail.bars) + len(head.bars) == 30

    def test_timestamp_beyond_the_calendar(self):
        series = _series(make_bars([1.0], start=10**12))
        with pytest.raises(DataError, match="no UTC calendar date"):
            clip_window(series, dt.date(2020, 1, 1), None)

    def test_empty_selection(self):
        series = _series(make_bars([1.0] * 3))
        with pytest.raises(UsageError, match="selects no bars"):
            clip_window(series, dt.date(1999, 1, 1), dt.date(1999, 1, 2))


class TestDailyFeeReturns:
    def test_single_day_arithmetic(self):
        bars = make_bars(
            [1.0, 1.0, 1.0],
            volumes=[4e5, 4e5, 2e5],
            tvls=[1e8, 1e8, 1e8],
            start=1600000000,
        )
        points = daily_fee_returns(_series(bars, fee_rate=0.003))
        assert len(points) == 1
        assert points[0].lp_return == pytest.approx(3.0e-5, rel=1e-12)

    def test_zero_volume_day(self):
        bars = make_bars([1.0, 1.0], volumes=[0.0, 0.0], tvls=[1e8, 1e8])
        points = daily_fee_returns(_series(bars))
        assert points[0].lp_return == 0.0

    def test_two_days_ascending_with_last_bar_tvl(self):
        # Day 1 volume 3e5 against closing tvl 5e7; day 2 volume 3e5
        # against 4e7. The day's last bar supplies the denominator.
        day1 = 1600041600  # 2020-09-14 00:00:00 UTC
        bars = (
            HourlyBar(timestamp=day1, price=1.0, volume=1e5, pool_liquidity=1e4, tvl=6e7),
            HourlyBar(timestamp=day1 + 3600, price=1.0, volume=2e5, pool_liquidity=1e4, tvl=5e7),
            HourlyBar(timestamp=day1 + 86400, price=1.0, volume=3e5, pool_liquidity=1e4, tvl=4e7),
        )
        points = daily_fee_returns(_series(bars, fee_rate=0.003))
        assert [p.date for p in points] == [dt.date(2020, 9, 14), dt.date(2020, 9, 15)]
        assert points[0].lp_return == pytest.approx(1.8e-5, rel=1e-12)
        assert points[1].lp_return == pytest.approx(2.25e-5, rel=1e-12)

    def test_utc_day_boundary_is_exact(self):
        just_before_midnight = 1600127999  # 2020-09-14 23:59:59 UTC
        bars = (
            HourlyBar(timestamp=just_before_midnight, price=1.0, volume=1e5, pool_liquidity=1e4, tvl=1e8),
            HourlyBar(timestamp=just_before_midnight + 1, price=1.0, volume=1e5, pool_liquidity=1e4, tvl=1e8),
        )
        points = daily_fee_returns(_series(bars))
        assert len(points) == 2

    def test_split_invariance_within_a_day(self):
        lumped = make_bars([1.0, 1.0], volumes=[6e5, 0.0], tvls=[9e7, 5e7])
        spread = make_bars([1.0, 1.0], volumes=[1e5, 5e5], tvls=[3e7, 5e7])
        a = daily_fee_returns(_series(lumped))[0].lp_return
        b = daily_fee_returns(_series(spread))[0].lp_return
        assert a == pytest.approx(b, rel=1e-12)

    def test_missing_tvl_is_a_usage_error(self):
        bars = make_bars([1.0, 1.0], volumes=[1e5, 1e5], tvls=[1e8, None])
        with pytest.raises(UsageError, match="tvl"):
            daily_fee_returns(_series(bars))

    @pytest.mark.parametrize(
        "volumes, tvl, fee_rate, reason",
        [
            ([1e308, 1e308], 1.0, 0.003, "(volume inf, tvl 1.0)"),
            ([1e308, 1e308], 1.0, 0.0, "(volume inf, tvl 1.0)"),
            ([1e308, 0.0], 1e-10, 0.003, "(volume 1e+308, tvl 1e-10)"),
        ],
        ids=["volume-sum", "volume-sum-without-fee", "return"],
    )
    def test_overflow_names_the_day(self, volumes, tvl, fee_rate, reason):
        bars = make_bars([1.0, 1.0], volumes=volumes, tvls=[tvl, tvl], start=1609459200)
        with pytest.raises(DataError) as caught:
            daily_fee_returns(_series(bars, fee_rate))
        assert str(caught.value) == f"day 2021-01-01: the fee return overflows {reason}"


class TestAverageDailyReturn:
    def test_mean_of_two(self):
        points = [
            DailyReturnPoint(date=dt.date(2021, 1, 1), lp_return=2e-5),
            DailyReturnPoint(date=dt.date(2021, 1, 2), lp_return=4e-5),
        ]
        assert average_daily_return(points, dt.date(2021, 1, 1), dt.date(2021, 1, 2)) == (
            pytest.approx(3e-5, rel=1e-12)
        )

    def test_single_point(self):
        points = [DailyReturnPoint(date=dt.date(2021, 1, 1), lp_return=7e-4)]
        assert average_daily_return(points, None, None) == 7e-4

    def test_window_respects_bounds(self):
        points = [
            DailyReturnPoint(date=dt.date(2021, 1, d), lp_return=d * 1e-5) for d in (1, 2, 3)
        ]
        assert average_daily_return(points, dt.date(2021, 1, 2), dt.date(2021, 1, 3)) == (
            pytest.approx(2.5e-5, rel=1e-12)
        )

    def test_empty_window(self):
        points = [DailyReturnPoint(date=dt.date(2021, 1, 1), lp_return=1e-5)]
        with pytest.raises(UsageError):
            average_daily_return(points, dt.date(2022, 1, 1), dt.date(2022, 1, 2))

    def test_overflow_names_the_window(self):
        points = [DailyReturnPoint(date=dt.date(2021, 1, d), lp_return=1e308) for d in (1, 2)]
        with pytest.raises(DataError) as caught:
            average_daily_return(points, dt.date(2021, 1, 1), None)
        assert str(caught.value) == "window 2021-01-01..None: the average daily return overflows"

    def test_a_finite_average_keeps_the_plain_sum(self):
        # math.fsum would give 0.6 / 3, two units in the last place lower.
        points = [
            DailyReturnPoint(date=dt.date(2021, 1, d), lp_return=d / 10) for d in (1, 2, 3)
        ]
        assert average_daily_return(points) == (0.1 + 0.2 + 0.3) / 3
