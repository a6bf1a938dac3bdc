"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # (outer_start, inner_start) ... (inner_end, outer_end); the wrapper's
    # bookkeeping is one time unit on each side of every call.
    #   a [0 [1 .. 19] 20]  layer x
    #     b [2 [3 .. 5] 6]  layer y
    #     c [7 [8 .. 16] 17]  layer x
    #       d [9 [10 .. 12] 13]  layer y
    t = spans.Tracer()
    t.open("a", "x", 1)
    t.open("b", "y", 3)
    t.close(5, 2, 6)
    t.open("c", "x", 8)
    t.open("d", "y", 10)
    t.close(12, 9, 13)
    t.close(16, 7, 17)
    t.close(19, 0, 20)
    assert t.self_time == {"a": 4, "b": 2, "c": 4, "d": 2}
    assert t.total == {"a": 12, "b": 2, "c": 6, "d": 2}
    assert t.layer_total == {"x": 12, "y": 4}
    assert t.bookkeeping == 8
    # wall = self times + bookkeeping + time outside every span
    assert sum(t.self_time.values()) + t.bookkeeping == 20


def test_recursive_calls_count_inclusive_time_once():
    t = spans.Tracer()
    t.open("f", "x", 0)
    t.open("f", "x", 2)
    t.close(4, 2, 4)
    t.close(10, 0, 10)
    assert t.calls["f"] == 2
    assert t.total["f"] == 10
    assert t.self_time["f"] == 10


def test_excluded_measurement_time_leaves_the_open_spans():
    t = spans.Tracer()
    t.open("a", "x", 0)
    t.open("b", "x", 1)
    t.exclude(2)
    t.close(6, 1, 6)
    t.close(10, 0, 10)
    assert t.self_time == {"a": 5, "b": 3}
    assert t.total == {"a": 8, "b": 3}
    assert t.attributed() == 10


def test_install_rebinds_every_importing_module():
    import bosonfermion.cli  # noqa: F401
    from bosonfermion import branching, catbernstein, homalg, linalg

    word_module = branching.word_module
    from_entries = linalg.SMat.__dict__["from_entries"]
    functions = {id(getattr(sys.modules[f"bosonfermion.{layer}"], path))
                 for layer, paths in spans.LAYERS.items()
                 for path in paths if "." not in path}
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert catbernstein.word_module is branching.word_module
        assert catbernstein.word_module.__wrapped__ is word_module
        assert catbernstein._lift_matrix is branching._lift_matrix
        assert homalg.rank is linalg.rank
        assert linalg.SMat.from_entries.__wrapped__ is from_entries.__func__
        for name, mod in sys.modules.items():
            if name.startswith("bosonfermion"):
                assert not functions & {id(v) for v in vars(mod).values()}

        catbernstein.specht_creation_check((2, 1))
        assert tracer.calls["branching.word_module"] > 0
        assert tracer.calls["linalg.SMat.from_entries"] > 0
        assert tracer.sizes["symrep.induce.dim_out"] > 0
        for name, own in tracer.self_time.items():
            assert 0 <= own <= tracer.total[name] + 1e-9
    finally:
        spans.uninstall(undo)
    assert catbernstein.word_module is word_module
    assert linalg.SMat.__dict__["from_entries"] is from_entries


def test_golden_mismatch_is_a_failed_instance():
    golden = {"a": "x", "b": "y"}
    doc = {"instances": [
        {"name": "a", "passed": True, "digest": "x"},
        {"name": "b", "passed": True, "digest": "corrupted"},
    ]}
    assert run.failures(doc, golden) == ["b"]
    doc["instances"][0]["passed"] = False
    assert run.failures(doc, golden) == ["a", "b"]


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    doc = {"instances": [{"name": "a", "seconds": 1.0, "ref_seconds": 1.0,
                          "unattributed_s": 0.0,
                          "passed": True,
                          "digest": "x"}],
           "peak_rss_mb": 1.0,
           "trace": spans.Tracer().to_json_obj()}
    e2e = run.end_to_end([doc], [0.1], attempted=1, failed=0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layer = run.per_layer([doc], [doc])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        unit = (e2e.get(m["name"]) or layer[m["name"]])["unit"]
        assert m["unit"] == unit, m["name"]
