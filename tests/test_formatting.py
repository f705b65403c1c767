import ast
from pathlib import Path

import numpy as np
import pytest

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
