import io

import numpy as np
import pytest

from esrlab.dataset import load_csv


def test_load_skips_comments_and_blank_lines():
    data = load_csv(io.StringIO("# made by hand\nx,y\n\n1.0,2.0\n# mid\n"
                                "3.0,4.0\n"))
    assert np.array_equal(data.x, [1.0, 3.0])
    assert np.array_equal(data.y, [2.0, 4.0])
    assert not data.has_uncertainties


@pytest.mark.parametrize("row", ["2.0", "2.0,3.0,4.0"])
def test_ragged_row_names_its_line(row):
    with pytest.raises(ValueError, match="line 4: "):
        load_csv(io.StringIO(f"x,y\n1.0,2.0\n\n{row}\n"))


def test_non_numeric_field_names_its_line():
    with pytest.raises(ValueError, match="line 3: "):
        load_csv(io.StringIO("x,y\n1.0,2.0\n2.0,abc\n"))
