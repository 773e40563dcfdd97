import datetime as dt
import struct

import numpy as np
import pytest

from topofield import FieldStack
from topofield.errors import BadMagic, FormatError, TruncatedPayload
from topofield.gfs import date_to_days, read_stack, stack_from_bytes, stack_to_bytes, write_stack


def tiny_stack(channels=1):
    rng = np.random.default_rng(0)
    vals = rng.uniform(250, 310, size=(2, channels, 2, 3))
    return FieldStack((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), vals)


def test_round_trip_values_quantize_to_float32():
    stack = tiny_stack()
    back = stack_from_bytes(stack_to_bytes(stack))
    assert back.dates == stack.dates
    assert np.array_equal(back.values, stack.values.astype(np.float32).astype(np.float64))


def test_write_read_write_is_byte_identical():
    stack = tiny_stack(channels=4)
    raw1 = stack_to_bytes(stack)
    raw2 = stack_to_bytes(stack_from_bytes(raw1))
    assert raw1 == raw2


def test_golden_bytes_layout():
    # pin the exact layout with a hand-packed payload
    vals = np.arange(12, dtype=np.float64).reshape(1, 1, 3, 4)
    stack = FieldStack((dt.date(1970, 1, 11),), vals)
    raw = stack_to_bytes(stack)
    expected = b"GFS1" + struct.pack("<IIII", 1, 3, 4, 1)
    expected += struct.pack("<q", 10)
    expected += np.arange(12, dtype="<f4").tobytes()
    assert raw == expected


def test_epoch_day_arithmetic():
    assert date_to_days(dt.date(1970, 1, 1)) == 0
    assert date_to_days(dt.date(1970, 1, 11)) == 10
    assert date_to_days(dt.date(2020, 1, 1)) == 18262


def test_bad_magic_rejected():
    raw = stack_to_bytes(tiny_stack())
    with pytest.raises(BadMagic):
        stack_from_bytes(b"XXXX" + raw[4:])


def test_truncated_payload_rejected():
    raw = stack_to_bytes(tiny_stack())
    with pytest.raises(TruncatedPayload):
        stack_from_bytes(raw[:-5])
    with pytest.raises(TruncatedPayload):
        stack_from_bytes(raw[:10])


def test_trailing_garbage_rejected():
    raw = stack_to_bytes(tiny_stack())
    with pytest.raises(FormatError):
        stack_from_bytes(raw + b"\x00")


def test_bad_channel_count_rejected():
    header = b"GFS1" + struct.pack("<IIII", 0, 2, 2, 3)
    with pytest.raises(FormatError):
        stack_from_bytes(header)


def test_file_round_trip(tmp_path):
    stack = tiny_stack(channels=4)
    path = tmp_path / "stack.gfs"
    write_stack(stack, path)
    back = read_stack(path)
    assert back.dates == stack.dates
    assert np.array_equal(back.values, stack.values.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("stack", [tiny_stack(), tiny_stack(channels=4), FieldStack((), np.empty((0, 4, 3, 5)))],
                         ids=["one-channel", "four-channel", "empty"])
def test_written_file_equals_stack_to_bytes(tmp_path, stack):
    path = tmp_path / "stack.gfs"
    path.write_bytes(b"an older, longer file at the same path" * 4)
    write_stack(stack, path)
    assert path.read_bytes() == stack_to_bytes(stack)


@pytest.mark.parametrize("days", [2**62, -10**7, 2**63 - 1, -2**63,
                                  date_to_days(dt.date.min) - 1, date_to_days(dt.date.max) + 1])
def test_day_count_outside_the_calendar_rejected(days):
    raw = bytearray(stack_to_bytes(tiny_stack()))
    raw[20:28] = struct.pack("<q", days)  # the first date follows the 20-byte header
    with pytest.raises(FormatError, match="outside the calendar"):
        stack_from_bytes(bytes(raw))


def test_calendar_end_dates_round_trip():
    stack = FieldStack((dt.date.min, dt.date.max), tiny_stack().values)
    assert stack_from_bytes(stack_to_bytes(stack)).dates == stack.dates
