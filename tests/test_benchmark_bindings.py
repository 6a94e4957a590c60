"""Every ciflie name the benchmark binds or calls must exist.

``perfbench/tracer.py`` wraps ciflie functions by (module, name) and
``perfbench/workloads.py`` calls them as ``c.<name>`` on the package.  A
name deleted from ciflie would break ``--trace 1`` or a workload only
when the benchmark runs, so this test resolves every one of them.  It
reads ``perfbench/`` and leaves it as it is (no bytecode is written).
"""

import importlib.util
import re
import sys
from pathlib import Path

import ciflie

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    missing = [
        (mod, name)
        for mod, name in [*tracer.SPANNED, *tracer.COUNTED]
        if not callable(getattr(getattr(ciflie, mod, None), name, None))
    ]
    for mod, cls, meth in tracer.COUNTED_METHODS:
        if meth not in vars(getattr(getattr(ciflie, mod, None), cls, object)):
            missing.append((mod, cls, meth))
    assert not missing
    assert len(tracer.SPANNED) > 20 and tracer.COUNTED and tracer.COUNTED_METHODS


def test_workload_calls_resolve():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bc\.([A-Za-z_]\w*)", text))
    assert {"check_theorem", "run_cli", "bracket_product_oracle"} <= names
    assert not [name for name in sorted(names) if not hasattr(ciflie, name)]
