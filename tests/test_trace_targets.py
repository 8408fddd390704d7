"""Every name the benchmark's layer trace wraps is defined where it looks.

perfbench/layertrace.py finds each traced function or method with
vars(owner).get(attr) and, when the name is missing (moved into a base
class or out of the module), only prints that it is not traced, so its
per-layer metric reads 0. This test fails instead.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_every_traced_name_is_defined_on_its_owner():
    tracer = run.layertrace.Tracer(run.load_dsfnet())
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer._targets()
               if attr not in vars(owner)]
    assert missing == []
