"""The three workloads: pinned configs, set-up, the commands of one round,
and the checks on every command's outputs.

Every command runs in-process through `latact.cli.main`, one after another
(a closed loop with one client). One command is one operation; a non-zero
exit or a failed output check counts it as failed.
"""

import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

from latact import autodiff, cli, theory
from latact import evaluate as ev
from latact.models import ModelConfig, build_model, pad_actions
from latact.rng import stream
from latact.training import TrainConfig, total_loss
from latact.worldgen import DGPSpec

import checks
from checks import require

F32 = np.float32

# Dataset make-up, shared by all workloads: target embodiment 0 with
# M_TARGET episodes, three source embodiments with SOURCE_COUNT each, T = 17.
T, M_TARGET, SOURCE_COUNT = 17, 10, 300
N_EPISODES = M_TARGET + 3 * SOURCE_COUNT
PRETRAIN_STEPS, SCAR_STEPS = 100, 400     # the 1:4 mix of the 150/600 reference run
EVAL_EPISODES = 400                       # per model and task
SETUP_STEPS = 40                          # checkpoints only need the right shapes
SETUP_REPEATS = 3

GEN_CFG = f"""[dgp]
T = {T}

[data]
m_target = {M_TARGET}
source_count = {SOURCE_COUNT}
target_e = 0
"""
TRAIN_CFG = f"""[train]
pretrain_fdm = true
pretrain_steps = {PRETRAIN_STEPS}
steps = {SCAR_STEPS}
batch_episodes = 16
"""
CKPT_CFG = f"""[train]
steps = {SETUP_STEPS}
batch_episodes = 16
"""
# `latact train --variant gt-action-baseline` only accepts zeroed weights;
# this config stays valid once the CLI zeroes them itself.
GT_CFG = CKPT_CFG + "beta = 0\nlam_adv = 0\n"
WARM_TRAIN_CFG = "[train]\nsteps = 5\nbatch_episodes = 4\n"


class SetupFailed(RuntimeError):
    pass


class Op:
    """One operation: its label, the latact argv, its output directory, the
    `command` its manifest must record, and the check on its outputs."""

    def __init__(self, label, argv, out, command, check):
        self.label, self.argv, self.out = label, [str(a) for a in argv], Path(out)
        self.command, self.check = command, check


class Run:
    """State of one benchmark process: counts, errors, digests, spans."""

    def __init__(self, seed, work):
        self.seed, self.work = seed, Path(work)
        self.tracer = None      # set while a traced operation runs
        self.attempted = self.failed = 0
        self.wrong = 0          # operations and run-level checks with wrong outputs
        self.errors = []
        self.digests = {}
        self.op_times = {}      # label -> wall times, reported on stderr
        self.dataset = None     # the last full-size dataset set up, for the run-level checks
        self.a2l_steps = None

    def run_cli(self, argv):
        """Run one latact command in-process; (exit code, its output text)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main([str(a) for a in argv])
        except Exception:
            return -1, traceback.format_exc()
        return rc, out.getvalue()

    def execute(self, op):
        """Run and check one operation; returns its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span(f"op.{op.label}"):
                rc, err = self.run_cli(op.argv)
        else:
            rc, err = self.run_cli(op.argv)
        elapsed = time.perf_counter() - t0
        self.op_times.setdefault(op.label, []).append(elapsed)
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{op.label}: exit code {rc}: {err.strip()[-400:]}")
            return elapsed
        try:
            checks.check_manifest(op.out, op.command, self.seed)
            op.check(op.out)
            digest = checks.output_digest(op.out)
            require(self.digests.setdefault(op.label, digest) == digest,
                    "outputs differ from this run's first round")
        except Exception as exc:    # any error in a check is a wrong output
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed

    def setup_cmd(self, argv):
        rc, err = self.run_cli(argv)
        if rc != 0:
            raise SetupFailed(f"set-up command {argv[0]} exited {rc}: {err.strip()[-400:]}")

    def gen_dataset(self, d):
        cfg = _write(d / "gen.cfg", GEN_CFG)
        self.setup_cmd(["gen", "--spec", cfg, "--out", d / "data", "--seed", self.seed])
        self.dataset = d / "data" / "dataset.bin"
        return self.dataset

    def train_ckpt(self, d, name, variant, cfg_text, data):
        cfg = _write(d / f"{name}.cfg", cfg_text)
        self.setup_cmd(["train", "--variant", variant, "--config", cfg, "--data", data,
                        "--out", d / name, "--seed", self.seed])
        return d / name


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# ---- model loading from the written files, for the sample checks ----

def load_model(run_dir):
    meta = json.loads((Path(run_dir) / "model.json").read_text())
    kw = {k: tuple(v) if isinstance(v, list) else v for k, v in meta["model_cfg"].items()}
    model = build_model(ModelConfig(**kw), stream(meta["seed"], "model-init"),
                        with_a2l=meta.get("with_a2l", False),
                        with_gtcond=meta.get("with_gtcond", False))
    model.load(checks.read_checkpoint(Path(run_dir) / "checkpoint.bin"))
    return model


# ---- train-pipeline ----

def gradient_check(run, dataset_path, n_episodes=2, coords_per_tensor=2):
    """Tape gradients of training.total_loss against central differences in
    float64. FDM and discriminator parameters follow dL_total; IDM
    parameters follow d(L_rec + beta L_KL) - alpha lam_adv dL_GRL, the
    gradient-reversal property. Weights are large enough that a missing
    reversal would show."""
    header, rec = checks.read_dataset(dataset_path)
    spec = DGPSpec(**header["spec"])
    cfg = TrainConfig(variant="scar-kl-grl", beta=0.3, lam_adv=0.7, alpha=0.5, seed=run.seed)
    pick = stream(run.seed, "perfbench-gradcheck")
    idx = pick.choice(header["n_episodes"], n_episodes, replace=False)
    batch = (np.stack([rec[f"ep{i:05d}.x"] for i in idx]).astype(F32),
             np.stack([pad_actions(rec[f"ep{i:05d}.a"], ModelConfig().d_a_max) for i in idx]),
             np.array([int(rec[f"ep{i:05d}.meta"][0]) for i in idx]))
    old = autodiff.DTYPE
    autodiff.DTYPE = np.float64
    try:
        model = build_model(ModelConfig(d_v=spec.d_x, n_embodiments=spec.n_embodiments),
                            stream(run.seed, "model-init"))

        def components():
            _, comp = total_loss(model, batch, cfg, stream(run.seed, "perfbench-noise"))
            return np.array([comp["L_rec"], comp["L_KL"], comp["L_GRL"]])

        total, _ = total_loss(model, batch, cfg, stream(run.seed, "perfbench-noise"))
        params = model.params()
        for p in params.values():
            p.grad = None
        total.backward()
        for name, p in sorted(params.items()):
            require(p.data.dtype == np.float64, f"{name} is not float64")
            flat, grad = p.data.reshape(-1), p.grad.reshape(-1)
            coords = {int(np.argmax(np.abs(grad)))}
            coords.update(int(c) for c in pick.integers(0, flat.size, coords_per_tensor - 1))
            for c in sorted(coords):
                h = 1e-5 * max(1.0, abs(flat[c]))
                orig = flat[c]
                flat[c] = orig + h
                up = components()
                flat[c] = orig - h
                down = components()
                flat[c] = orig
                d_rec, d_kl, d_grl = (up - down) / (2 * h)
                if name.startswith("idm."):
                    want = d_rec + cfg.beta * d_kl - cfg.alpha * cfg.lam_adv * d_grl
                else:
                    want = d_rec + cfg.beta * d_kl + cfg.lam_adv * d_grl
                err = abs(grad[c] - want) / (abs(grad[c]) + abs(want) + 1e-6)
                require(err < 1e-4, f"gradient of {name}[{c}]: tape {grad[c]:.6g}, "
                                    f"central difference {want:.6g}")
    finally:
        autodiff.DTYPE = old


def train_pipeline_setup(run, d):
    """Pinned configs, the dataset the run-level checks use, and a short
    warm-up train so first-call costs fall outside the timed rounds."""
    data = run.gen_dataset(d)
    run.train_ckpt(d, "warm", "scar-kl-grl", WARM_TRAIN_CFG, data)
    return {"gen": _write(d / "gen.cfg", GEN_CFG), "train": _write(d / "train.cfg", TRAIN_CFG)}


def train_pipeline_round(run, s, d):
    data, out = d / "data", d / "run"

    def check_gen(out_dir):
        checks.check_dgp_dataset(out_dir / "dataset.bin", DGPSpec, M_TARGET, SOURCE_COUNT, T)

    def check_train(out_dir):
        checks.check_loss_decreases(out_dir / "pretrain_log.csv", PRETRAIN_STEPS)
        checks.check_loss_decreases(out_dir / "log.csv", SCAR_STEPS)
        checks.check_model_dir(out_dir)

    return [
        Op("gen", ["gen", "--spec", s["gen"], "--out", data, "--seed", run.seed],
           data, "gen", check_gen),
        Op("train", ["train", "--variant", "scar-kl-grl", "--config", s["train"],
                     "--data", data / "dataset.bin", "--out", out, "--seed", run.seed],
           out, "train --variant scar-kl-grl", check_train),
    ]


def train_pipeline_final(run):
    gradient_check(run, run.dataset)


# ---- eval-rollout ----

def eval_rollout_setup(run, d):
    data = run.gen_dataset(d)
    return {"data": data,
            "full": run.train_ckpt(d, "full", "scar-kl-grl", CKPT_CFG, data),
            "gt": run.train_ckpt(d, "gt", "gt-action-baseline", GT_CFG, data)}


def check_eval_sample(run, s, n_sample=3):
    """On a sample of held-out episodes: rollout_episode keeps the clean
    context block exactly, and image_metrics matches a float64 recomputation."""
    header, _ = checks.read_dataset(s["data"])
    spec = DGPSpec(**header["spec"])
    for name in ("full", "gt"):
        model = load_model(s[name])
        f_hist = model.cfg.f_hist
        for task_spec in (spec, ev.transfer_spec(spec)):
            for i, ep in enumerate(ev.eval_episodes(task_spec, run.seed, n_sample, 0)):
                pred = ev.rollout_episode(model, ep, stream(run.seed, f"rollout:{i}"))
                require(np.array_equal(pred[:f_hist], ep.x[:f_hist].astype(F32)),
                        f"{name}: rollout changed the clean context block")
                pf = ev.frames_from_obs_seq(pred[f_hist:], task_spec)
                tf = ev.frames_from_obs_seq(ep.x[f_hist:], task_spec)
                got, ref = ev.image_metrics(pf, tf), checks.image_metrics_ref(pf, tf)
                for key, want in ref.items():
                    require(checks.close(getattr(got, key), want),
                            f"{name}: image_metrics {key} {getattr(got, key)} != {want}")


def eval_rollout_round(run, s, d):
    e_out, l_out = d / "eval", d / "leakage"

    def check_eval(out_dir):
        checks.check_metrics_csv(out_dir / "metrics.csv", ["full", "gt"])
        check_eval_sample(run, s)

    return [
        Op("eval", ["eval", "--checkpoints", f"full={s['full']},gt={s['gt']}", "--data", s["data"],
                    "--out", e_out, "--seed", run.seed, "--episodes", EVAL_EPISODES],
           e_out, "eval", check_eval),
        Op("leakage", ["leakage", "--checkpoint", s["full"], "--data", s["data"],
                       "--out", l_out, "--seed", run.seed],
           l_out, "leakage", lambda o: checks.check_leakage_json(o / "leakage.json")),
    ]


# ---- small-graph ----

def small_graph_setup(run, d):
    data = run.gen_dataset(d)
    return {"data": data, "full": run.train_ckpt(d, "full", "scar-kl-grl", CKPT_CFG, data)}


def small_graph_round(run, s, d):
    def a2l_op(mode):
        out = d / f"a2l-{mode}"

        def check(out_dir):
            checks.check_a2l_outputs(s["full"], out_dir, mode)
            run.a2l_steps = len((out_dir / "a2l_log.csv").read_text().splitlines()) - 1

        return Op(f"a2l-{mode}", ["a2l", "--checkpoint", s["full"], "--data", s["data"],
                                  "--out", out, "--seed", run.seed, "--mode", mode],
                  out, f"a2l --mode {mode}", check)

    # verify's MGF check fails on a few seeds (26 and 39 of 0-39) although
    # its closed form is right; it then exits 2, which counts as a failure.
    return [
        Op("verify", ["verify", "--preset", "vmf-small", "--out", d / "verify",
                      "--seed", run.seed],
           d / "verify", "verify --preset vmf-small",
           lambda o: checks.check_verify_json(o / "verify.json", run.seed)),
        Op("probe", ["probe", "--checkpoint", s["full"], "--data", s["data"],
                     "--out", d / "probe", "--seed", run.seed],
           d / "probe", "probe", lambda o: checks.check_probe_json(o / "probe.json")),
        a2l_op("sequence"),
        a2l_op("ft"),
    ]


def small_graph_final(run):
    from scipy.special import iv
    checks.check_bessel(theory.bessel_I, iv)


WORKLOADS = {
    "train-pipeline": (train_pipeline_setup, train_pipeline_round, train_pipeline_final),
    "eval-rollout": (eval_rollout_setup, eval_rollout_round, lambda run: None),
    "small-graph": (small_graph_setup, small_graph_round, small_graph_final),
}


def timed_setup(run, name, tag):
    setup = WORKLOADS[name][0]
    d = run.work / f"{name}-setup-{tag}"
    t0 = time.perf_counter()
    s = setup(run, d)
    return s, time.perf_counter() - t0


def one_round(run, name, s, tag):
    """Run one round; returns the summed wall time of its commands."""
    d = run.work / f"{name}-round-{tag}"
    return sum(run.execute(op) for op in WORKLOADS[name][1](run, s, d))


def run_window(run, name, s, seconds):
    """Whole rounds until `seconds` have passed; returns the round times."""
    times = []
    t_end = time.perf_counter() + seconds
    while not times or time.perf_counter() < t_end:
        times.append(one_round(run, name, s, len(times)))
    return times


def traced_execute(run, op, tracer):
    """Run one operation with the tracer's wrappers installed."""
    tracer.install()
    run.tracer = tracer
    try:
        return run.execute(op)
    finally:
        tracer.uninstall()
        run.tracer = None


def paired_window(run, name, s, seconds, tracer):
    """Whole rounds until `seconds` have passed, with every command run twice
    in a row, untraced and traced. The order alternates from pair to pair,
    so neither side always runs first. Returns (untraced, traced) wall times
    per pair."""
    pairs = []
    t_end = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < t_end:
        d = run.work / f"{name}-round-{len(pairs)}"
        make_round = WORKLOADS[name][1]
        for plain, traced in zip(make_round(run, s, d / "untraced"),
                                 make_round(run, s, d / "traced")):
            if len(pairs) % 2:
                t = traced_execute(run, traced, tracer)
                u = run.execute(plain)
            else:
                u = run.execute(plain)
                t = traced_execute(run, traced, tracer)
            pairs.append((u, t))
    return pairs


def final_checks(run, name):
    """The workload's run-level checks; a failure marks the run incorrect."""
    try:
        WORKLOADS[name][2](run)
    except Exception as exc:
        run.wrong += 1
        run.errors.append(f"{name} final check: {type(exc).__name__}: {exc}")
