"""The benchmark's view of the program, checked without running it.

`perfbench/` reaches into the package from outside: its tracer wraps named
functions and its op figures call models and the optimizer directly. A
rename or deletion there leaves a per-layer figure null; these tests fail
on it in seconds. They read `perfbench/` and change nothing in it.
"""

import importlib.util
import json
import math
from pathlib import Path

from latact.rng import stream
from latact.worldgen import DGPSpec, generate_dataset

ROOT = Path(__file__).resolve().parent.parent

# wrap points the tracer still lists although the program no longer has them
STALE_WRAP_POINTS = ["evaluate.action_cond_sequence"]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(wrap_points):
    out = {}
    for module, attr, _ in wrap_points:
        owner = importlib.import_module(f"latact.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        out[(module, attr)] = vars(owner).get(leaf) if owner is not None else None
    return out


def test_tracer_finds_every_wrap_point_and_uninstalls():
    tracing = _perfbench("tracing")
    before = _bindings(tracing.WRAP_POINTS)
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
        wrapped = _bindings(tracing.WRAP_POINTS)
    finally:
        tracer.uninstall()
    assert missing == STALE_WRAP_POINTS
    for key, original in before.items():
        if original is not None:
            assert wrapped[key] is not original, key
    assert _bindings(tracing.WRAP_POINTS) == before


def test_op_figures_are_finite_numbers(capsys):
    ops = _perfbench("ops")
    dataset = generate_dataset(0, DGPSpec(), m_target=4, source_count=4)
    figures = ops.op_timings(stream(0, "perfbench-ops"))
    figures.update(ops.model_figures(dataset, 0))
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert len(figures) == 13 and set(figures) <= per_layer
    for name, value in figures.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    # the benchmark's result is its last stdout line
    assert capsys.readouterr().out == ""

