"""The bench tracer wraps fkent functions by name; each name must resolve.

bench/spans.py lists `<module>.<function>` names in TRACED.  A rename in
fkent that leaves one dangling would break every traced bench run, so it
fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve_to_fkent_callables():
    names = _traced_names()
    assert names
    for qual in names:
        module_name, func_name = qual.split(".")
        module = importlib.import_module(f"fkent.{module_name}")
        assert callable(getattr(module, func_name, None)), qual
