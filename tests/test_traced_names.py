import importlib

from conftest import perfbench_module


def test_every_traced_name_is_a_function_of_lexicorp():
    # A traced benchmark run reports a name it cannot find as "# not traced";
    # this finds such a name without running the benchmark.
    tracer = perfbench_module("tracer")
    assert tracer._COUNTERS.keys() <= tracer.SPANS.keys()
    for name in tracer.SPANS:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"lexicorp.{module}"), attr, None)), name
