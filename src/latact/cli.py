"""Command-line entry point: gen, train, eval, probe, leakage, a2l, verify.

Every command writes its outputs plus a run manifest into --out; all
randomness derives from --seed through named streams.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

# One BLAS thread unless the caller set a count: the matmuls here are small,
# and a second thread only adds CPU time (and contention on a busy machine).
# Set before numpy loads, which reads these once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import evaluate as ev
from . import theory
from .autodiff import no_grad
from .config import ConfigError, build_section, config_hash, load_config
from .models import ModelConfig, build_model, dataset_fields
from .rng import stream
from .serialize import load_checkpoint, save_checkpoint
from .training import (
    TrainingAborted,
    make_config,
    model_checksum,
    posterior_mean_targets,
    pretrain_fdm,
    train_a2l,
    train_scar,
)
from .worldgen import generate_dataset, load_dataset, save_dataset


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _manifest(args, out, started):
    """manifest.json in --out: the command, its seed and times, and the
    SHA-256 of each file it wrote."""
    _write_json(Path(args.out) / "manifest.json", {
        "command": out.command,
        "config_hash": out.config_hash,
        "seed": args.seed,
        "started": started,
        "finished": round(time.time(), 3),
        "files": sorted(Path(f).name for f in out.files),
        "checksums": {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
                      for f in out.files},
    })


def _load_model_dir(path):
    path = Path(path)
    meta_path = path / "model.json"
    try:
        meta = json.loads(meta_path.read_text())
        cfg = ModelConfig(**{key: tuple(val) if isinstance(val, list) else val
                             for key, val in meta["model_cfg"].items()})
        seed = meta["seed"]
    except KeyError as exc:
        raise ValueError(f"{meta_path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: {exc}") from exc
    model = build_model(cfg, stream(seed, "model-init"),
                        with_a2l=meta.get("with_a2l", False),
                        with_gtcond=meta.get("with_gtcond", False))
    model.load(load_checkpoint(path / "checkpoint.bin"))
    return model, meta


def _load_for_data(paths, data_path):
    """The model directories at `paths`, each as (model, meta), and the
    dataset at `data_path`; refused when a model cannot take the dataset's
    observations (d_v must be its d_x), actions (d_a_max at least its d_a)
    or episodes (f_hist below its T)."""
    loaded = [_load_model_dir(path) for path in paths]
    dataset = load_dataset(data_path)
    spec = dataset.spec
    for path, (model, _) in zip(paths, loaded):
        cfg = model.cfg
        if cfg.d_v != spec.d_x or cfg.d_a_max < spec.d_a or cfg.f_hist >= spec.T:
            raise ValueError(f"{Path(path) / 'model.json'} (d_v {cfg.d_v}, d_a_max "
                             f"{cfg.d_a_max}, f_hist {cfg.f_hist}) cannot take {data_path} "
                             f"(d_x {spec.d_x}, d_a {spec.d_a}, T {spec.T})")
    return loaded, dataset


def _require_target_episodes(dataset, data_path):
    """Refuse a dataset without target-embodiment episodes, which `probe`,
    `a2l` and the target-only variant train on."""
    if not dataset.by_embodiment(dataset.target_e):
        raise ValueError(f"{data_path}: no episodes of the target embodiment "
                         f"{dataset.target_e} ([data] m_target = 0)")


def _save_model_dir(out_dir, model, meta):
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt, model.numpy_params())
    meta = dict(meta)
    meta["model_cfg"] = dataclasses.asdict(model.cfg)
    meta["checksum"] = model_checksum(model)
    meta_path = out_dir / "model.json"
    _write_json(meta_path, meta)
    return [ckpt, meta_path]


# ---- commands ----

# What a command body returns: the command and config hash its manifest
# records, the files it wrote, its summary line and its exit code.
Outputs = namedtuple("Outputs", "command config_hash files summary exit_code",
                     defaults=[0])


def _out_dir(args):
    """Create --out; each command calls this only once its inputs are checked."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_gen(args):
    config = load_config(args.spec) if args.spec else {}
    spec = build_section(config, "dgp", param_seed=args.seed)
    data_cfg = build_section(config, "data")
    if not 0 <= data_cfg.target_e < spec.n_embodiments:
        raise ConfigError(f"[data] target_e must be one of the {spec.n_embodiments} "
                          f"embodiments, got {data_cfg.target_e}")
    dataset = generate_dataset(args.seed, spec, target_e=data_cfg.target_e,
                               m_target=data_cfg.m_target,
                               source_count=data_cfg.source_count)
    data_path = _out_dir(args) / "dataset.bin"
    save_dataset(data_path, dataset)
    return Outputs("gen", config_hash(config), [data_path],
                   f"gen: wrote {data_path} ({len(dataset.episodes)} episodes)")


def cmd_train(args):
    config = load_config(args.config) if args.config else {}
    train_cfg = build_section(config, "train", variant=args.variant, seed=args.seed)
    dataset = load_dataset(args.data)
    model_cfg = build_section(config, "model", **dataset_fields(dataset.spec))
    if model_cfg.f_hist >= dataset.spec.T:
        raise ConfigError(f"[model] f_hist {model_cfg.f_hist} leaves nothing to predict "
                          f"in the {dataset.spec.T}-step episodes of {args.data}")
    if train_cfg.flags.target_only:
        _require_target_episodes(dataset, args.data)
    out_dir = _out_dir(args)
    model = build_model(model_cfg, stream(train_cfg.seed, "model-init"),
                        with_gtcond=train_cfg.flags.gt_action)
    files = []
    if train_cfg.pretrain_fdm:
        pretrain_fdm(dataset, train_cfg, model=model,
                     log_path=out_dir / "pretrain_log.csv")
        files.append(out_dir / "pretrain_log.csv")
    log_path = out_dir / "log.csv"
    model, rows = train_scar(dataset, train_cfg, model=model, log_path=log_path)
    files.append(log_path)
    files += _save_model_dir(out_dir, model,
                             {"variant": train_cfg.variant, "seed": train_cfg.seed,
                              "with_a2l": False, "with_gtcond": train_cfg.flags.gt_action})
    return Outputs(f"train --variant {args.variant}", config_hash(config), files,
                   f"train: {args.variant} final L_total {rows[-1]['L_total']:.5f}")


def cmd_eval(args):
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be at least 1, got {args.episodes}")
    paths = {}
    for part in args.checkpoints.split(","):
        name, _, path = part.partition("=")
        if not name or not path:
            raise ConfigError(f"--checkpoints entries must be name=dir, got {part!r}")
        if name in paths:
            raise ConfigError(f"--checkpoints names {name!r} more than once")
        paths[name] = path
    loaded, dataset = _load_for_data(paths.values(), args.data)
    models = {name: model for name, (model, _) in zip(paths, loaded)}
    out_dir = _out_dir(args)
    tables = ev.run_transfer_eval(models, dataset.spec, args.seed,
                                  n_episodes=args.episodes, target_e=dataset.target_e)
    csv_path = out_dir / "metrics.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "task", "SSIM", "PSNR", "MSE", "SSIM-L"])
        for method in sorted(tables):
            for task in ("target", "transfer"):
                cell = tables[method][task]
                writer.writerow([method, task, f"{cell['ssim']:.6f}",
                                 f"{cell['psnr']:.4f}", f"{cell['mse']:.8f}",
                                 f"{cell['ssim_l']:.6f}"])
    json_path = out_dir / "metrics.json"
    _write_json(json_path, {m: {t: {k: v for k, v in c.items() if k != "rows"}
                                for t, c in tasks.items()}
                            for m, tasks in tables.items()})
    return Outputs("eval", "", [csv_path, json_path], f"eval: wrote {csv_path}")


def cmd_probe(args):
    [(model, _)], dataset = _load_for_data([args.checkpoint], args.data)
    _require_target_episodes(dataset, args.data)
    out_dir = _out_dir(args)
    report = ev.action_probe(model, dataset, seed=args.seed)
    z, u, e = ev.latents_with_ground_truth(model, dataset)
    report.update(ev.latent_recovery_score(z, u, e, seed=args.seed))
    report["r2_forward"] = {str(k): v for k, v in report["r2_forward"].items()}
    report["r2_inverse"] = {str(k): v for k, v in report["r2_inverse"].items()}
    path = out_dir / "probe.json"
    _write_json(path, report)
    return Outputs("probe", "", [path], f"probe: eval MSE {report['eval_mse']:.5f}")


def cmd_leakage(args):
    [(model, _)], dataset = _load_for_data([args.checkpoint], args.data)
    embodiments = dataset.spec.embodiments
    if len(embodiments) < 2:
        raise ValueError(f"{args.data}: only embodiment {dataset.target_e}; leakage "
                         "needs a source embodiment besides the target")
    missing = [str(e) for e in embodiments if not dataset.by_embodiment(e)]
    if missing:
        raise ValueError(f"{args.data}: no episodes of embodiment(s) {', '.join(missing)}; "
                         "leakage trains its frame classifier on every embodiment")
    clf, val_acc = ev.train_frame_classifier(dataset, seed=args.seed)
    ev.require_reliable_classifier(val_acc)
    out_dir = _out_dir(args)
    rollouts = ev.leakage_rollouts(model, dataset, args.seed)
    report = ev.leakage_eval(rollouts, clf, val_acc)
    path = out_dir / "leakage.json"
    _write_json(path, {
        "SourceProb": report.source_prob,
        "TargetProb": report.target_prob,
        "TargetShare": report.target_share,
        "TargetSource": report.target_source,
        "classifier_val_acc": val_acc,
    })
    return Outputs("leakage", "", [path], f"leakage: TargetShare {report.target_share:.4f}")


def cmd_a2l(args):
    [(model, meta)], dataset = _load_for_data([args.checkpoint], args.data)
    if model.gtcond is not None:
        raise ValueError(f"{args.checkpoint}: a raw-action checkpoint has no "
                         "trained inverse model to fit the controller to")
    _require_target_episodes(dataset, args.data)
    out_dir = _out_dir(args)
    if model.a2l is None:
        from .models import A2LParams
        model.a2l = A2LParams(model.cfg, stream(args.seed, "a2l-init"))
    train_cfg = make_config("shared-latent", seed=args.seed)
    pointwise = args.mode == "pointwise"
    ft = args.mode == "ft"
    log_path = out_dir / "a2l_log.csv"
    _, rows = train_a2l(model, dataset, train_cfg, pointwise=pointwise, ft=ft,
                        log_path=log_path)
    mse = _a2l_eval_mse(model, dataset, args.seed, pointwise=pointwise)
    files = [log_path]
    files += _save_model_dir(out_dir, model,
                             {"variant": meta.get("variant", ""), "seed": args.seed,
                              "with_a2l": True, "with_gtcond": False,
                              "a2l_mode": args.mode})
    report_path = out_dir / "a2l.json"
    _write_json(report_path, {"mode": args.mode, "eval_latent_mse": mse,
                              "final_train_loss": rows[-1]["L_total"]})
    files.append(report_path)
    return Outputs(f"a2l --mode {args.mode}", "", files,
                   f"a2l: {args.mode} eval latent MSE {mse:.6f}")


def _a2l_eval_mse(model, dataset, seed, pointwise):
    from .models import a2l_predict

    episodes = ev.eval_episodes(dataset.spec, seed, 20, dataset.target_e)
    target = posterior_mean_targets(model, episodes)
    with no_grad():
        pred = a2l_predict(np.stack([ep.a for ep in episodes]),
                           np.stack([ep.x[: model.cfg.f_hist] for ep in episodes]),
                           model.a2l, pointwise=pointwise).data
    # the mean of the per-episode errors
    return float(((pred - target) ** 2).mean(axis=(1, 2)).astype(np.float64).mean())


VMF_PRESETS = {
    "vmf-small": dict(d_a=4, d_z=2, n_embodiments=4, kappa=8.0),
    "vmf-default": dict(d_a=6, d_z=3, n_embodiments=4, kappa=8.0),
}


def cmd_verify(args):
    if args.preset not in VMF_PRESETS:
        raise ConfigError(f"unknown preset '{args.preset}' "
                          f"(choose from {sorted(VMF_PRESETS)})")
    preset = VMF_PRESETS[args.preset]
    seeds = [args.seed + k for k in range(3)]
    checks = []

    saddle_stats = []
    exps = [theory.make_vmf_experiment(seed=s, **preset) for s in seeds]
    for s, rep in zip(seeds, theory.saddle_train(exps, seeds)):
        if not rep["ok"]:
            saddle_stats.append({"seed": s, "ok": False, "reason": rep["reason"]})
            continue
        saddle_stats.append({
            "seed": s, "ok": True,
            "ce_gap": abs(rep["held_out_ce"] - rep["ln_num_embodiments"]),
            "invariance_stat": rep["invariance_stat"],
            "max_principal_angle": rep["max_principal_angle"],
        })
    threshold = {"ce_gap": 0.05, "invariance_stat": 0.05, "max_principal_angle": 0.1}
    ok = all(r["ok"] and all(r[k] < bound for k, bound in threshold.items())
             for r in saddle_stats)
    checks.append({"check": "saddle", "seeds": seeds, "passed": ok,
                   "statistic": saddle_stats, "threshold": threshold})

    mgf_stat = _mgf_check(preset, args.seed)
    threshold = {"worst_z": 3.0}
    checks.append({"check": "mgf", "seeds": [args.seed],
                   "passed": mgf_stat["worst_z"] < threshold["worst_z"],
                   "statistic": mgf_stat, "threshold": threshold})

    bessel_res = _bessel_recurrence_residual()
    threshold = {"max_relative_residual": 1e-8}
    checks.append({"check": "bessel-recurrence", "seeds": [],
                   "passed": bessel_res < threshold["max_relative_residual"],
                   "statistic": {"max_relative_residual": bessel_res},
                   "threshold": threshold})

    lemma = theory.idm_lemma_check(seed=args.seed)
    threshold = {"r2": 0.99, "r2_shuffled": 0.1, "state_dependence_gap": 0.01}
    lemma_ok = (lemma["premise_met"] and lemma["r2_forward"] > threshold["r2"]
                and lemma["r2_inverse"] > threshold["r2"]
                and lemma["r2_shuffled"] < threshold["r2_shuffled"]
                and lemma["state_dependence_gap"] < threshold["state_dependence_gap"])
    checks.append({"check": "idm-lemma", "seeds": [args.seed],
                   "passed": bool(lemma_ok), "statistic": lemma, "threshold": threshold})

    path = _out_dir(args) / "verify.json"
    _write_json(path, {"preset": args.preset, "checks": checks})
    n_pass = sum(c["passed"] for c in checks)
    return Outputs(f"verify --preset {args.preset}", "", [path],
                   f"verify: {n_pass}/{len(checks)} checks passed",
                   0 if n_pass == len(checks) else 2)


def _mgf_check(preset, seed, n_probes=20, n_samples=100_000):
    from .worldgen import vmf_sample

    d_a, kappa = preset["d_a"], preset["kappa"]
    d_z = preset["d_z"]
    rng = stream(seed, "verify-mgf")
    v = np.zeros(d_a)
    v[0] = 1.0
    samples = vmf_sample(v, kappa, n_samples, rng).astype(np.float64)
    worst = 0.0
    for _ in range(n_probes):
        M = rng.normal(0, 0.4, (d_z, d_a))
        u = rng.normal(0, 0.5, d_z)
        vals = np.exp(samples @ (M.T @ u))
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)
        closed = theory.mgf_closed_form(u, M, v, kappa, d_a)
        worst = max(worst, abs(closed - mc) / max(se, 1e-300))
    return {"worst_z": float(worst), "n_probes": n_probes}


def _bessel_recurrence_residual():
    worst = 0.0
    for nu in (1.0, 1.5, 2.5):
        for r in np.linspace(0.1, 50.0, 40):
            lhs = theory.bessel_I(nu - 1, r) - theory.bessel_I(nu + 1, r)
            rhs = 2 * nu / r * theory.bessel_I(nu, r)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return float(worst)


def make_parser():
    parser = argparse.ArgumentParser(
        prog="latact",
        description="Latent-action world model: data, training, evaluation, "
                    "and numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, *inputs):
        """A subcommand with its required `inputs`, --out and --seed."""
        p = sub.add_parser(name, help=text, description=text)
        for flag in inputs:
            p.add_argument(flag, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=fn)
        return p

    # `cmd_*` is looked up here, at call time, so a wrapper set on the module
    # attribute before `main` runs is the function that runs
    command("gen", cmd_gen, "generate a synthetic dataset").add_argument(
        "--spec", help="flat-text config with [dgp]/[data] sections")
    command("train", cmd_train, "train one variant", "--variant", "--data").add_argument(
        "--config", help="flat-text config with a [train] section")
    command("eval", cmd_eval, "transfer evaluation over checkpoints given as "
            "--checkpoints name=dir,...", "--checkpoints", "--data").add_argument(
        "--episodes", type=int, default=50)
    command("probe", cmd_probe, "action probe + latent recovery scoring",
            "--checkpoint", "--data")
    command("leakage", cmd_leakage, "embodiment leakage measurement",
            "--checkpoint", "--data")
    command("a2l", cmd_a2l, "train the action-to-latent controller",
            "--checkpoint", "--data").add_argument(
        "--mode", choices=("sequence", "pointwise", "ft"), default="sequence")
    command("verify", cmd_verify, "numerical identifiability checks").add_argument(
        "--preset", default="vmf-default")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    started = round(time.time(), 3)
    try:
        out = args.fn(args)
        _manifest(args, out, started)
    except (ConfigError, FileNotFoundError, KeyError, ValueError, OSError,
            TrainingAborted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(out.summary)
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
