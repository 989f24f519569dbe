"""The package runs on the oldest NumPy its metadata accepts.

pyproject.toml declares ``numpy>=1.24``; the library may use no name that
NumPy added in 2.0, such as the ``.mT`` matrix transpose (``swapaxes(-1,
-2)`` works in every version) or the array-API aliases.  The installed
NumPy may be newer, so the source is searched, not run.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NUMPY_2_ONLY = re.compile(
    r"\.m[TH]\b"
    r"|\bnp\.(matrix_transpose|vecdot|concat|permute_dims|astype|isdtype"
    r"|unique_(all|counts|inverse|values)|cumulative_(sum|prod)|trapezoid"
    r"|acosh?|asinh?|atanh?|atan2|pow|bitwise_(invert|left_shift"
    r"|right_shift))\b"
    r"|\bnp\.exceptions\b|\bnumpy\._core\b")


def test_the_declared_numpy_floor_is_below_2():
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)"', text)
    assert floor and int(floor.group(1)) < 2  # else this guard can go


def test_the_library_uses_no_numpy_2_only_name():
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted((ROOT / "src" / "genestim").glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if NUMPY_2_ONLY.search(line.split("#")[0])]
    assert not found, found
