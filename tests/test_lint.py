"""Source-level rules for the package."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from hqc128 import cli
from hqc128 import codes
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
    # profiled phase reaches some hooks (codes.rs_syndromes), so check every call
    names = set(Counters.__slots__)
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
    assert listed == modules


def test_cost_categories_cover_every_unit_and_baseline_cell(capsys):
    units = list(cm.AcceleratorConfig._fields)
    rows = cm.CATEGORIES.values()
    assert {row.unit for row in rows} == set(units)
    for phase, cells in cm.SW_BASELINE.items():
        owners = {cell: [name for name, row in cm.CATEGORIES.items() if cell in row.cells]
                  for cell in cells}
        assert all(len(o) == 1 for o in owners.values()), (phase, owners)
    for row in rows:
        assert row.driven in row.cells and row.anchor in cm.PHASES
        assert row.counter in Counters.__slots__
    # each unit is a `hqc128 costmodel` flag that turns on that unit alone
    for unit in units:
        assert cli.main(["costmodel", f"--{unit.replace('_', '-')}"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"configuration: {unit}"


def test_parameter_set_is_bound_once():
    # HQC-128 is the one parameter set: params builds it once, at import, as P,
    # and every other module reads it by `from .params import P`, never by
    # another module's attribute (kem.P, codes.P) or a re-export. Neither the
    # KEM nor the code layer takes a parameter-set argument, except the second
    # parameter of the four code functions that perfbench/ calls as f(x, P)
    takes_record = {("codes", name, 1)
                    for name in ("rs_encode", "rs_decode", "rm_encode", "rs_syndromes")}
    bad = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = {id(node) for stmt in tree.body for node in ast.walk(stmt)
                     if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                              ast.ClassDef))}
        bad += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "hqc128"
                and not (path.stem == "params" and id(node) in top_level)
                or isinstance(node, ast.ImportFrom) and any(a.name == "P" for a in node.names)
                and not (node.level == 1 and node.module == "params")
                or isinstance(node, ast.Attribute) and node.attr == "P"
                or isinstance(node, ast.Name) and node.id == "P"
                and isinstance(node.ctx, ast.Store) and path.stem != "params"]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if path.stem in ("kem", "codes"):
                args = fn.args
                bad += [f"{path.name}:{fn.lineno}: {fn.name}({a.arg})"
                        for i, a in enumerate([*args.posonlyargs, *args.args, *args.kwonlyargs])
                        if a.annotation is not None and "ParamSet" in ast.unparse(a.annotation)
                        and (path.stem, fn.name, i) not in takes_record]
    assert bad == []


def _numpy_dtype_spells_byte_order(dtype: ast.expr | None) -> bool:
    # a numpy read of a multi-byte dtype must say little-endian ('<u8'); a
    # one-byte dtype has no byte order
    if dtype is None:
        return False
    if isinstance(dtype, ast.Constant) and isinstance(dtype.value, str):
        return dtype.value.startswith(("<", "|"))
    return ast.unparse(dtype) in ("np.uint8", "np.int8", "np.bool_")


def _call_arg(node: ast.Call, position: int, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return node.args[position] if len(node.args) > position else None


def test_src_reads_binary_data_little_endian():
    # memoryview.cast, a struct format without a byte-order prefix and a numpy
    # buffer read of a multi-byte dtype without one (np.frombuffer,
    # np.ndarray(..., buffer=...), .view) use the host's byte order, while
    # every buffer here is written little-endian
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "struct":
                bad.append(f"{path.name}:{node.lineno}: from struct import (call struct.<name>)")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                bad.append(f"{path.name}:{node.lineno}: from numpy import (call np.<name>)")
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
            elif node.func.attr == "frombuffer" or (
                    node.func.attr == "ndarray" and _call_arg(node, 2, "buffer") is not None):
                if not _numpy_dtype_spells_byte_order(_call_arg(node, 1, "dtype")):
                    bad.append(where)
            elif node.func.attr == "view" and (node.args or node.keywords):
                if not _numpy_dtype_spells_byte_order(_call_arg(node, 0, "dtype")):
                    bad.append(where)
    assert bad == []


def test_every_public_name_in_src_has_a_program_caller():
    # a public top-level function, class or constant of src/ that only tests
    # reach is dead code: the program is src/ (minus the re-exports of
    # __init__), scripts/ and perfbench/. A use is a load of the name in its
    # own module, a `from <module> import name`, or `<module alias>.name`;
    # `hqc128.<name>` counts for whichever module defines the name
    modules = {path.stem for path in SRC.glob("*.py")}
    defined: dict[tuple[str, str], int] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update({(path.stem, name): node.lineno
                            for name in names if not name.startswith("_")})

    def module_of(node: ast.ImportFrom, in_src: bool) -> str | None:
        # the hqc128 module an import reads from: "" is the package itself
        if in_src and node.level == 1:
            return node.module or ""
        if node.level == 0 and node.module and node.module.split(".")[0] == "hqc128":
            return node.module.partition(".")[2]
        return None

    used: set[tuple[str, str]] = set()

    def use(module: str, name: str) -> None:
        used.update({(m, name) for m, n in defined if n == name and module in ("", m)})

    program = [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py")),
               *sorted((ROOT / "perfbench").glob("*.py"))]
    for path in program:
        if path.name == "__init__.py":
            continue
        in_src = path.parent == SRC
        tree = ast.parse(path.read_text())
        aliases = {}    # local name -> hqc128 module ("" for the package)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update({a.asname or a.name: a.name.partition(".")[2]
                                for a in node.names if a.name.split(".")[0] == "hqc128"})
            elif isinstance(node, ast.ImportFrom):
                source = module_of(node, in_src)
                if source is None:
                    continue
                for a in node.names:
                    if source == "" and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    else:
                        use(source, a.name)
        for node in ast.walk(tree):
            if in_src and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((path.stem, node.id))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                use(aliases[node.value.id], node.attr)
    assert sorted(f"{m}.py:{line}: {n}" for (m, n), line in defined.items()
                  if (m, n) not in used) == []


def test_kem_path_holds_no_ring_element_int():
    # a DensePoly is its wire bytes and the KEM builds each ring result as
    # '<u8' words, so no int whose length follows a ring element's value is
    # made on the KEM path: DensePoly has no int field besides its degree,
    # and kem.py neither calls int.from_bytes nor reads a `.value`. The word
    # and byte layouts of ring results belong to poly_ring, so kem.py does
    # not import numpy either, nor assign into a subscript of an accumulator
    from hqc128 import kem
    from hqc128.poly_ring import DensePoly

    pk, sk = kem.keygen(bytes(40))
    ct, _ = kem.encaps(pk, bytes(range(40)))
    kem.decaps(sk, kem.deserialize_ct(kem.serialize_ct(ct)))
    for element in (pk.s, pk.h, ct.u, ct.v):
        names = set(getattr(DensePoly, "__slots__", ())) | set(getattr(element, "__dict__", {}))
        assert [name for name in sorted(names - {"n"})
                if isinstance(getattr(element, name, None), int)] == []
    tree = ast.parse((SRC / "kem.py").read_text())
    assert [f"kem.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (node.attr == "value" or ast.unparse(node) == "int.from_bytes")] == []
    assert [f"kem.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")] == []
    assert [f"kem.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)] == []


def _is_support(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "support"


def test_supports_stay_index_arrays():
    # a fixed-weight support is one sorted intp array from the sampler to the
    # ring product, so src never turns a support (a `.support` attribute, or
    # the sampler's `picked` set before it becomes that array) back into a
    # Python sequence: no tuple, sorted, list, np.array or np.asarray of it,
    # no `.support.tolist()`, and no loop or comprehension over `.support`
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func in ("tuple", "sorted", "list", "np.array", "np.asarray") and any(
                        _is_support(a) or isinstance(a, ast.Name) and a.id == "picked"
                        for a in node.args):
                    bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
                elif (isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"
                      and _is_support(node.func.value)):
                    bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, (ast.For, ast.comprehension)) and _is_support(node.iter):
                bad.append(f"{path.name}:{node.iter.lineno}: for ... in {ast.unparse(node.iter)}")
    assert bad == []


def test_code_widths_are_built_at_import():
    # the RS layer computes at packed widths built once, at module level: a
    # _Lanes built inside a function or class body of codes.py is built per
    # call or per instance instead (a set: a method is walked with its class)
    tree = ast.parse((SRC / "codes.py").read_text())
    bad = {f"codes.py:{node.lineno}: {ast.unparse(node)}"
           for scope in ast.walk(tree)
           if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
           for node in ast.walk(scope)
           if isinstance(node, ast.Call) and ast.unparse(node.func) == "_Lanes"}
    assert sorted(bad) == []


def test_struct_formats_are_not_compiled_per_call():
    # struct.Struct compiles its format when it is built, so one built inside
    # a function body (a lambda included) compiles it on every call; build it
    # at module level, or call struct.unpack, whose format cache compiles
    # each format once
    bad = {f"{path.name}:{node.lineno}: {ast.unparse(node)}"
           for path in sorted(SRC.glob("*.py"))
           for scope in ast.walk(ast.parse(path.read_text(), filename=str(path)))
           if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
           for node in ast.walk(scope)
           if isinstance(node, ast.Call) and ast.unparse(node.func) == "struct.Struct"}
    assert sorted(bad) == []


def test_import_builds_no_dataclasses():
    # the records are plain classes and NamedTuples: neither `import hqc128`
    # nor `import hqc128.cli` (which loads the cost model) in a fresh
    # interpreter, after numpy, loads the dataclasses module
    probe = ("import sys, importlib; sys.path.insert(0, sys.argv[1]); import numpy; "
             "importlib.import_module(sys.argv[2]); print('dataclasses' in sys.modules)")
    outs = [subprocess.run([sys.executable, "-I", "-c", probe, str(SRC.parent), module],
                           capture_output=True, text=True, check=True).stdout.split()
            for module in ("hqc128", "hqc128.cli")]
    assert outs == [["False"], ["False"]]


def test_codes_keeps_no_large_table_resident():
    # the RM transform runs as two small products, with H16 and H8; the
    # 128 x 128 matrix, 64 KiB in float32, is not kept after import
    arrays = {name: value.nbytes for name, value in vars(codes).items()
              if isinstance(value, np.ndarray)}
    assert sum(arrays.values()) < 4096, arrays


def test_namedtuple_modules_keep_annotations_evaluated():
    # typing.NamedTuple type-checks every field annotation; postponed by
    # `from __future__ import annotations`, each one is a string it compiles
    # into a ForwardRef at class creation, on every import
    bad = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(SCRIPTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(), filename=str(path))
        tuples = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(ast.unparse(b) in ("NamedTuple", "typing.NamedTuple")
                          for b in node.bases)]
        postponed = any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
                        and any(a.name == "annotations" for a in node.names)
                        for node in tree.body)
        if tuples and postponed:
            bad.append(f"{path.name}: {', '.join(tuples)}")
    assert bad == []


def test_import_runs_few_python_calls():
    # the import-time tables are built by C-level sequence operations, not
    # element by element: each row of powers of alpha is one strided slice of
    # a repeated antilog run, the inverse table one fancy-index assignment. In
    # a fresh interpreter, after numpy, `import hqc128` makes 289 Python-level
    # calls into src/ (2,936 when every power was a generator step and every
    # inverse a gf_pow_alpha call)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy\n"
             "calls = 0\n"
             "def count(frame, event, arg):\n"
             "    global calls\n"
             "    calls += event == 'call' and frame.f_code.co_filename.startswith(sys.argv[2])\n"
             "sys.setprofile(count)\n"
             "import hqc128\n"
             "sys.setprofile(None)\n"
             "print(calls)")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC.parent), str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert int(out) <= 400


def test_import_loads_only_the_package_and_its_hash_layer():
    # in a fresh interpreter, after numpy, `import hqc128` adds its own modules
    # and the hash layer only: hashlib with _hashlib and _blake2 (ct_equal
    # binds OpenSSL's compare_digest from _hashlib, so no hmac), and
    # __future__ for postponed annotations. No module it loads defines a
    # typing.NamedTuple or a collections.namedtuple record, whose generated
    # __new__ is compiled by eval on every import; costmodel and cli, which
    # `import hqc128` does not load, keep theirs
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy\n"
             "before = set(sys.modules)\n"
             "import hqc128\n"
             "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC.parent)],
                           capture_output=True, text=True, check=True).stdout.split()
    package = [m for m in added if m == "hqc128" or m.startswith("hqc128.")]
    assert sorted(set(added) - set(package)) == ["__future__", "_blake2", "_hashlib", "hashlib"]
    factories = {"NamedTuple", "typing.NamedTuple", "namedtuple", "collections.namedtuple"}
    bad = []
    for module in package:
        path = SRC / ("__init__.py" if module == "hqc128" else module[len("hqc128."):] + ".py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            made = ([ast.unparse(b) for b in node.bases] if isinstance(node, ast.ClassDef)
                    else [ast.unparse(node.func)] if isinstance(node, ast.Call) else [])
            if factories.intersection(made):
                bad.append(f"{path.name}:{node.lineno}")
    assert bad == []
