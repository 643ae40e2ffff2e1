"""Source-level rules for the package."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from hqc128 import cli
from hqc128 import costmodel as cm
from hqc128.counters import Counters

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hqc128"
SCRIPTS = ROOT / "scripts"


def test_src_has_no_assert_statements():
    # `python -O` strips asserts, so a runtime check must raise instead
    found = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_counter_hooks_name_a_counters_field():
    # a misspelt name raises only when a counting context is active, and no
    # profiled phase reaches some hooks (gf256.gf_mul), so check every call
    names = {f.name for f in fields(Counters)}
    bad = []
    for path in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "keccak_ref.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node).startswith("counters.add_"):
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "counters.add":
                first = node.args[0] if node.args else None
                if not (isinstance(first, ast.Constant) and first.value in names):
                    bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert bad == []


def test_readme_lists_every_module():
    listed = set(re.findall(r"^\| `hqc128\.(\w+)` \|", (ROOT / "README.md").read_text(),
                            re.MULTILINE))
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules - listed == set()


def test_cost_categories_cover_every_unit_and_baseline_cell(capsys):
    units = [f.name for f in fields(cm.AcceleratorConfig)]
    rows = cm.CATEGORIES.values()
    assert {row.unit for row in rows} == set(units)
    for phase, cells in cm.SW_BASELINE.items():
        owners = {cell: [name for name, row in cm.CATEGORIES.items() if cell in row.cells]
                  for cell in cells}
        assert all(len(o) == 1 for o in owners.values()), (phase, owners)
    for row in rows:
        assert row.driven in row.cells and row.anchor in cm.PHASES
        assert row.counter in {f.name for f in fields(Counters)}
    # each unit is a `hqc128 costmodel` flag that turns on that unit alone
    for unit in units:
        assert cli.main(["costmodel", f"--{unit.replace('_', '-')}"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"configuration: {unit}"


def test_parameter_set_is_bound_once():
    # HQC-128 is the one parameter set: a module builds it at import, never per
    # call, and neither the KEM nor the code layer takes a parameter-set
    # argument, except the second parameter of the four code functions that
    # perfbench/ calls as f(x, P)
    takes_record = {("codes", name, 1)
                    for name in ("rs_encode", "rs_decode", "rm_encode", "rs_syndromes")}
    bad = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bad += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "hqc128"]
            if path.stem in ("kem", "codes"):
                args = fn.args
                bad += [f"{path.name}:{fn.lineno}: {fn.name}({a.arg})"
                        for i, a in enumerate([*args.posonlyargs, *args.args, *args.kwonlyargs])
                        if a.annotation is not None and "ParamSet" in ast.unparse(a.annotation)
                        and (path.stem, fn.name, i) not in takes_record]
    assert bad == []


def test_src_reads_binary_data_little_endian():
    # memoryview.cast and a struct format without a byte-order prefix use the
    # host's byte order, while every buffer here is written little-endian
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "struct":
                bad.append(f"{path.name}:{node.lineno}: from struct import (call struct.<name>)")
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            where = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            if node.func.attr == "cast":
                bad.append(where)
            elif ast.unparse(node.func.value) == "struct" and node.func.attr != "error":
                fmt = node.args[0] if node.args else None
                if isinstance(fmt, ast.JoinedStr):
                    fmt = fmt.values[0] if fmt.values else None
                if not (isinstance(fmt, ast.Constant) and str(fmt.value).startswith("<")):
                    bad.append(where)
    assert bad == []
