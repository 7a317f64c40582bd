"""The benchmark's traced run wraps gcdlab functions at the module globals
they are looked up through; each of those must still exist."""

import builtins
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    for module, attr, name in tracing.SITES:
        if attr in vars(module):
            target = vars(module)[attr]
        else:
            assert attr == "print", f"{module.__name__}.{attr} ({name}) is gone"
            target = getattr(builtins, attr)
        assert callable(target), f"{module.__name__}.{attr} ({name})"
