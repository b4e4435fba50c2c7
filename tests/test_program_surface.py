"""``src/`` is what the program calls: every function, method, property and
class defined under ``src/repro`` is referenced somewhere else under
``src/repro`` (a name, an attribute, a string such as a ``getattr`` key, or
an ``@register`` decorator; ``__all__`` lists do not count), or is named
below with the reason it stays.  A test-only helper belongs in ``tests/``.
Likewise every attribute ``src/repro`` writes is read there: state only a
test looks at is observed through behaviour instead, and every
``FireLedgerConfig`` field is a knob some caller sets."""

import ast
from dataclasses import fields
from pathlib import Path

from repro.core.config import FireLedgerConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Defined under ``src/repro`` and referenced by nothing there, on purpose.
ALLOWED = {
    "run_process": "kernel contract, pinned by name on both backends",
    "transactions_applied": "read by benchmarks/perf/measure.py",
    "transactions_rejected": "read by benchmarks/perf/measure.py",
    "transactions_stale": "read by benchmarks/perf/measure.py",
    "resolve": "the figure benchmarks' lookup (benchmarks/conftest.py)",
    "build_block": "read by benchmarks/perf/probes.py",
    "definite_blocks": "read by examples/quickstart.py",
    "tentative_blocks": "read by examples/quickstart.py",
    "from_toml": "the README's way to load a TOML scenario file",
    "scaled": "MachineSpec's copy-with-overrides for CPU ablations",
}


def test_every_definition_under_src_is_used_there():
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        exported = {id(node) for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", "") == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                if any(getattr(decorator, "id", "") == "register"
                       for decorator in node.decorator_list):
                    used.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exported):
                used.add(node.value)
    unused = {name: where for name, where in defined.items()
              if not name.startswith("__") and name not in used}
    assert unused.keys() - ALLOWED.keys() == set(), unused
    assert ALLOWED.keys() <= unused.keys(), "now used: drop it from ALLOWED"


#: Attributes ``src/repro`` assigns and never reads, on purpose.
ALLOWED_WRITE_ONLY = {
    "messages_sent": "read by benchmarks/perf/measure.py",
    "messages_delivered": "read by benchmarks/perf/measure.py",
    "late_deliveries": "the recorder's horizon-too-tight detector "
                       "(tests/test_retention.py reads it)",
    "daemon": "a stdlib Thread setter",
}


def test_every_attribute_src_writes_is_read_there():
    """An ``ast.Attribute`` stored under ``src/repro`` (``self.x = ...``,
    ``self.x += ...``) is loaded there too — as an attribute or a string
    such as a ``getattr`` key — or is named in ``ALLOWED_WRITE_ONLY``."""
    written, read = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    written.setdefault(node.attr, f"{path.name}:{node.lineno}")
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    write_only = {name: where for name, where in written.items()
                  if not name.startswith("__") and name not in read}
    assert write_only.keys() - ALLOWED_WRITE_ONLY.keys() == set(), write_only
    assert ALLOWED_WRITE_ONLY.keys() <= write_only.keys(), (
        "now read: drop it from ALLOWED_WRITE_ONLY")


#: ``FireLedgerConfig`` fields no caller outside the tests passes, on purpose.
ALLOWED_UNSET = {
    "permute_every": "switches the proposer permutation on; "
                     "tests/test_retention.py covers it",
}


def test_every_config_field_has_a_caller():
    """Every ``FireLedgerConfig`` field is passed by keyword somewhere under
    ``src/repro`` (outside ``core/config.py``), ``benchmarks/`` or
    ``examples/``, or is named in ``ALLOWED_UNSET``: a value no caller sets
    is a constant of the module that reads it."""
    passed = set()
    for root in (SRC, ROOT / "benchmarks", ROOT / "examples"):
        for path in sorted(root.rglob("*.py")):
            if path == SRC / "core" / "config.py":
                continue
            passed.update(node.arg for node in ast.walk(ast.parse(path.read_text()))
                          if isinstance(node, ast.keyword))
    unset = {field.name for field in fields(FireLedgerConfig)} - passed
    assert unset - ALLOWED_UNSET.keys() == set(), unset
    assert ALLOWED_UNSET.keys() <= unset, "now passed: drop it from ALLOWED_UNSET"
