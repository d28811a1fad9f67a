import re

import numpy as np
import pytest

from esrlab._files import InputError
from esrlab.dataset import load_csv


def _csv(tmp_path, text: str) -> str:
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


def test_load_skips_comments_and_blank_lines(tmp_path):
    data = load_csv(_csv(tmp_path, "# made by hand\nx,y\n\n1.0,2.0\n# mid\n"
                                   "3.0,4.0\n"))
    assert np.array_equal(data.x, [1.0, 3.0])
    assert np.array_equal(data.y, [2.0, 4.0])
    assert not data.has_uncertainties


@pytest.mark.parametrize("row", ["2.0", "2.0,3.0,4.0"])
def test_ragged_row_names_its_line(tmp_path, row):
    path = _csv(tmp_path, f"x,y\n1.0,2.0\n\n{row}\n")
    with pytest.raises(InputError, match=f"^{re.escape(path)}:4: "):
        load_csv(path)


def test_non_numeric_field_names_its_line(tmp_path):
    path = _csv(tmp_path, "x,y\n1.0,2.0\n2.0,abc\n")
    with pytest.raises(InputError, match=f"^{re.escape(path)}:3: "):
        load_csv(path)
