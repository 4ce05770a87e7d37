"""The benchmark's view of the program.

`perfbench/` reaches into the package from outside: its tracer wraps named
functions and its op figures call models and the optimizer directly. A
rename or deletion there leaves a per-layer figure null; these tests fail
on it in seconds, without running the benchmark. One slow test runs a
short traced benchmark as a subprocess and reads its result line. They
change nothing in `perfbench/`.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from latact import evaluate as ev
from latact import theory
from latact.models import ModelConfig, build_model
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


def _workloads(monkeypatch):
    """perfbench's workloads module, which imports its sibling `checks`."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    return _perfbench("workloads")


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


def test_pinned_call_forms_run(tmp_path, monkeypatch):
    # the eval-rollout sample check calls ev.rollout_episode(model, ep,
    # Generator) on one episode; the train-pipeline gradient check sets
    # autodiff.DTYPE as a module global; ops.model_figures, run above, calls
    # rollout_generate on a (f_hist, d) context with a (F, d_c) Tensor
    wl = _workloads(monkeypatch)
    run = wl.Run(0, tmp_path)
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("[dgp]\nT = 17\n[data]\nm_target = 4\nsource_count = 4\n")
    run.setup_cmd(["gen", "--spec", gen_cfg, "--out", tmp_path / "data", "--seed", 0])
    data = tmp_path / "data" / "dataset.bin"
    steps = "[train]\nsteps = 2\nbatch_episodes = 2\n"
    s = {"data": data,
         "full": run.train_ckpt(tmp_path, "full", "scar-kl-grl", steps, data),
         "gt": run.train_ckpt(tmp_path, "gt", "gt-action-baseline",
                              steps + "beta = 0\nlam_adv = 0\n", data)}
    wl.check_eval_sample(run, s)
    wl.gradient_check(run, data)


def test_tracer_records_eval_rollout_spans():
    tracing = _perfbench("tracing")
    spec = DGPSpec()
    model = build_model(ModelConfig(d_v=spec.d_x), stream(0, "bench-contract"))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.span("op.eval"):
            ev.run_transfer_eval({"m": model}, spec, 0, n_episodes=2)
    finally:
        tracer.uninstall()
    figures = tracing.span_metrics(tracer, {"gen": 1, "train": 1, "eval": 1, "a2l": 1})
    # one batched call per model and task
    for name in ("evaluate.rollout_episode_ms", "models.rollout_generate_ms"):
        assert figures[name] is not None and figures[name] > 0, name
    ix = tracing.SpanIndex(tracer)
    assert len(ix.select("evaluate.rollout_episode", ["eval"])) == 2
    assert len(ix.select("models.rollout_generate", ["eval"])) == 2


def test_tracer_records_verify_saddle_spans():
    # verify's shape: three experiments, one stacked saddle_train call
    tracing = _perfbench("tracing")
    seeds = [0, 1, 2]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.span("op.verify"):
            exps = [theory.make_vmf_experiment(d_a=4, d_z=2, seed=s) for s in seeds]
            reports = theory.saddle_train(exps, seeds, steps=60, n_test=400)
    finally:
        tracer.uninstall()
    assert len(reports) == 3
    figures = tracing.span_metrics(tracer, {"gen": 1, "train": 1, "eval": 1, "a2l": 1})
    for name in ("theory.saddle_train_s", "worldgen.vmf_sample_ms"):
        assert figures[name] is not None and figures[name] > 0, name
    ix = tracing.SpanIndex(tracer)
    assert len(ix.select("theory.make_vmf_experiment", ["verify"])) == 3
    # one span covers all three games
    assert len(ix.select("theory.saddle_train", ["verify"])) == 1
    # per game: the held-out set and one 60-step chunk
    assert len(ix.select("worldgen.vmf_sample", ["verify"])) == 6


@pytest.mark.slow
def test_traced_run_prints_one_strict_result_line():
    # a traced run executes every workload's commands, and the op figures
    # and the gradient check outside the commands' stdout redirect; the
    # benchmark's result must still be its only stdout line, strict JSON
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout[-2000:]

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the result line")

    result = json.loads(lines[0], parse_constant=reject)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert [k for k, m in result["metrics"].items() if m["value"] is None] == []
