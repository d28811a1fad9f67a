"""The shared line reader, and the contract of every input-file reader: a
file either reads or is rejected with an InputError, nothing else."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from esrlab._files import InputError, read_lines
from esrlab.cli import _baseline_values, parse_gp_config
from esrlab.dataset import load_csv, synthetic_dataset
from esrlab.enumeration import read_catalog
from esrlab.fitting import read_results
from esrlab.runlog import read_runlog


def test_read_lines_numbers_lines_and_keeps_newlines(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\n\nc")
    assert list(read_lines(str(path))) == [(1, "a\n"), (2, "b\n"), (3, "\n"),
                                           (4, "c")]


def test_read_lines_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\n\xc3\xa9 fine\nbad \xe9 byte\n")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: "
                       r"not UTF-8 text \(invalid continuation byte\)$"):
        read_lines(str(path))


_DATA = synthetic_dataset(n=16)

READERS = {
    "dataset": load_csv,
    "catalog": read_catalog,
    "results": read_results,
    "run log": read_runlog,
    "gp config": parse_gp_config,
    "baselines mse": lambda path: _baseline_values(path, _DATA, "mse"),
    "baselines mnr": lambda path: _baseline_values(path, _DATA, "mnr"),
}

# what the formats are made of: separators, comment and header marks,
# digits, the expression syntax and a few of the formats' own words
_ALPHABET = "\t\n\r,#=.-+*/^|() 0123456789eExp"
_WORDS = ["#count=", "#crc=", "#done", "#seed=", "#max_len=", "#grammar=",
          "inv(", "abs(", "powabs(", "nan", "inf", "x,y,sigma_x,sigma_y",
          "pop_size", "max_length", "objective", "mnr", "mse", "1e999"]

_format_text = st.lists(st.one_of(st.text(_ALPHABET, max_size=12),
                                  st.sampled_from(_WORDS)),
                        max_size=24).map("".join)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def _reads_or_rejects(reader, path, body: bytes) -> None:
    path.write_bytes(body)
    try:
        reader(str(path))
    except InputError as err:
        assert str(err).startswith(str(path))


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=100, deadline=None)
@given(body=st.binary(max_size=200))
def test_reader_on_arbitrary_bytes(fuzz_file, reader, body):
    _reads_or_rejects(READERS[reader], fuzz_file, body)


@pytest.mark.parametrize("reader", list(READERS))
@settings(max_examples=100, deadline=None)
@given(text=_format_text)
def test_reader_on_format_text(fuzz_file, reader, text):
    _reads_or_rejects(READERS[reader], fuzz_file, text.encode("utf-8"))
