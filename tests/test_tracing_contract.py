"""What the benchmark's tracer relies on in wfano.

`perfbench/tracing.py` wraps library functions by `module.name` and reads
attributes of what they return.  A refactor that moves or renames one of
them breaks traced benchmark runs; these checks catch it in seconds.
"""

import importlib
import importlib.util
from pathlib import Path

from wfano import golden
from wfano.exactmath import implicit_eliminate, parse_poly
from wfano.rigidity import certify_row
from wfano.wps import general_quasismooth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = load_tracing()
    for module in tracing.MODULES:
        importlib.import_module(f"wfano.{module}")
    for module, name in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"wfano.{module}"), name, None)
        assert callable(fn), f"wfano.{module}.{name}"


def test_observed_results_have_the_attributes_read():
    data = golden.data()
    f = data.family(95).family
    row = data.rows_for(95)[0]
    # z*w + x^2 = 0 in the chart z = 1 gives w = -x^2
    series = implicit_eliminate(parse_poly("z*w + x^2"), chart_vertex=2,
                                eliminated=4, local_weights=(1, 1, 1),
                                cutoff=5)
    qs = general_quasismooth(f)
    cert = certify_row(f, row)
    assert hasattr(series, "terms")
    assert hasattr(qs, "ok")
    assert hasattr(cert, "checks")

    tracer = load_tracing().Tracer()
    tracer.observe("exactmath.implicit_eliminate", series)
    tracer.observe("wps.general_quasismooth", qs)
    tracer.observe("rigidity.certify_row", cert)
    assert tracer.counters == {
        "exactmath.series_terms": 1, "exactmath.coeff_bits_max": 1,
        "wps.qs_passed": 1, "rigidity.checks_total": len(cert.checks)}
