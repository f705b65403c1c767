import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pairsim
from pairsim.formatting import _BLOCK, csv_lines, format_number

COMPUTE_MODULES = ("dispersion", "qpm", "source", "detector", "montecarlo", "config")


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK, _BLOCK + 1])
def test_csv_lines_match_row_by_row_formatting(n_rows):
    rng = np.random.default_rng(n_rows)
    columns = (rng.uniform(-2.0, 2.0, n_rows) * 10.0 ** rng.integers(-6, 6, n_rows),
               np.arange(n_rows) % 2, np.zeros(n_rows))
    labels = [f"stage{k}" for k in range(n_rows)]
    rows = list(zip(*(col.tolist() for col in columns)))
    by_row = [",".join(format_number(x) for x in row) for row in rows]

    assert list(csv_lines("a,b,c", columns)) == ["a,b,c", *by_row]
    assert (list(csv_lines("name,a,b,c", columns, labels=labels))
            == ["name,a,b,c", *(f"{name},{line}" for name, line in zip(labels, by_row))])


def _near(x: float, ulps: int) -> float:
    """The float ``ulps`` steps from x (towards +inf when positive)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# cells format_number treats specially, in every drawn pool
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf,
          -math.inf, 1e-3, -1e-3, 9.99999e-4, 999999.5, 123456.5, 1.0, -1.0]
# every float64, the neighbours of format_number's 1e-3 switch, and the
# neighbours of the halfway points where 6 significant digits round up or down
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda sign, ulps: sign * _near(1e-3, ulps),
              st.sampled_from([1.0, -1.0]), st.integers(-3, 3)),
    st.builds(lambda sign, digits, exponent, ulps: sign * _near(
                  float(f"{digits}5e{exponent}"), ulps),
              st.sampled_from([1.0, -1.0]), st.integers(100000, 999999),
              st.integers(-330, 300), st.integers(-2, 2)),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cells=st.lists(_CELLS, min_size=1, max_size=100),
       names=st.lists(st.text(max_size=6), min_size=1, max_size=8),
       n_cols=st.integers(1, 5), n_rows=st.sampled_from([0, 1, _BLOCK, _BLOCK + 1]),
       with_labels=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_csv_lines_equal_format_number_row_by_row(cells, names, n_cols, n_rows,
                                                  with_labels, seed):
    rng = np.random.default_rng(seed)
    columns = rng.choice(np.array(cells + _EDGES), (n_cols, n_rows))
    labels = rng.choice(np.array(names, dtype=object), n_rows).tolist() if with_labels else None
    rows = [",".join(map(format_number, row)) for row in zip(*columns.tolist())]
    if with_labels:
        rows = [f"{name},{row}" for name, row in zip(labels, rows)]
    assert list(csv_lines("h", columns, labels=labels)) == ["h", *rows]


def test_integer_and_zero_cells_print_bare():
    columns = np.array([[1.0, 0.25], [1, 0]])
    assert list(csv_lines("v,flag", columns)) == ["v,flag", "1,1", "0.25,0"]


def _tree(module: str) -> ast.Module:
    path = Path(pairsim.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text("utf-8"))


@pytest.mark.parametrize("module", COMPUTE_MODULES)
def test_compute_modules_neither_format_nor_write(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "formatting"
            assert "formatting" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any("formatting" in alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("open", "print"), f"{module} calls {node.func.id}"
        elif isinstance(node, ast.FunctionDef):
            assert not node.name.startswith("write_"), f"{module}.{node.name}"
