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
from .models import ModelConfig, build_model
from .rng import stream
from .serialize import load_checkpoint, save_checkpoint
from .training import (
    VARIANTS,
    TrainingAborted,
    make_config,
    model_checksum,
    posterior_mean_targets,
    pretrain_fdm,
    train_a2l,
    train_scar,
)
from .worldgen import generate_dataset, load_dataset, save_dataset


def _file_sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _manifest(out_dir, command, cfg_hash, seed, files, started):
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "started": started,
        "finished": round(time.time(), 3),
        "files": sorted(str(Path(f).name) for f in files),
        "checksums": {Path(f).name: _file_sha(f) for f in sorted(files)},
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


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


def _save_model_dir(out_dir, model, meta):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.bin"
    save_checkpoint(ckpt, model.numpy_params())
    meta = dict(meta)
    meta["model_cfg"] = dataclasses.asdict(model.cfg)
    meta["checksum"] = model_checksum(model)
    meta_path = out_dir / "model.json"
    _write_json(meta_path, meta)
    return [ckpt, meta_path]


# ---- commands ----

def cmd_gen(args):
    started = round(time.time(), 3)
    config = load_config(args.spec) if args.spec else {}
    spec = build_section(config, "dgp", param_seed=args.seed)
    data_cfg = build_section(config, "data")
    dataset = generate_dataset(args.seed, spec, target_e=data_cfg.target_e,
                               m_target=data_cfg.m_target,
                               source_count=data_cfg.source_count)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "dataset.bin"
    save_dataset(data_path, dataset)
    _manifest(out_dir, "gen", config_hash(config), args.seed, [data_path], started)
    print(f"gen: wrote {data_path} ({len(dataset.episodes)} episodes)")
    return 0


def cmd_train(args):
    started = round(time.time(), 3)
    config = load_config(args.config) if args.config else {}
    train_cfg = _train_config(config, args.variant, args.seed)
    dataset = load_dataset(args.data)
    model_cfg = build_section(config, "model", d_v=dataset.spec.d_x,
                              n_embodiments=dataset.spec.n_embodiments)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = build_model(model_cfg, stream(train_cfg.seed, "model-init"),
                        with_gtcond=train_cfg.gt_action)
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
                              "with_a2l": False, "with_gtcond": train_cfg.gt_action})
    _manifest(out_dir, f"train --variant {args.variant}", config_hash(config),
              args.seed, files, started)
    print(f"train: {args.variant} final L_total {rows[-1]['L_total']:.5f}")
    return 0


def _train_config(config, variant, seed):
    """[train] values over the variant's default loss weights (`make_config`)."""
    values = dict(config.get("train", {}))
    if values.pop("variant", variant) != variant:
        raise ConfigError("variant flag contradicts the config file")
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r} (choose from {sorted(VARIANTS)})")
    if "seed" in values:
        raise ConfigError("[train] key 'seed' is set by the command (--seed), "
                          "not by the config file")
    values["seed"] = seed
    try:
        return make_config(variant, **values)
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from exc


def cmd_eval(args):
    started = round(time.time(), 3)
    models = {}
    for part in args.checkpoints.split(","):
        name, _, path = part.partition("=")
        if not path:
            raise ConfigError(f"--checkpoints entries must be name=dir, got {part!r}")
        models[name], _ = _load_model_dir(path)
    dataset = load_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = ev.run_transfer_eval(models, dataset.spec, args.seed,
                                  n_episodes=args.episodes)
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
    _manifest(out_dir, "eval", "", args.seed, [csv_path, json_path], started)
    print(f"eval: wrote {csv_path}")
    return 0


def cmd_probe(args):
    started = round(time.time(), 3)
    model, _ = _load_model_dir(args.checkpoint)
    dataset = load_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = ev.action_probe(model, dataset, seed=args.seed)
    z, u, e = ev.latents_with_ground_truth(model, dataset)
    report.update(ev.latent_recovery_score(z, u, e, seed=args.seed))
    report["r2_forward"] = {str(k): v for k, v in report["r2_forward"].items()}
    report["r2_inverse"] = {str(k): v for k, v in report["r2_inverse"].items()}
    path = out_dir / "probe.json"
    _write_json(path, report)
    _manifest(out_dir, "probe", "", args.seed, [path], started)
    print(f"probe: eval MSE {report['eval_mse']:.5f}")
    return 0


def cmd_leakage(args):
    started = round(time.time(), 3)
    model, _ = _load_model_dir(args.checkpoint)
    dataset = load_dataset(args.data)
    clf, val_acc = ev.train_frame_classifier(dataset, seed=args.seed)
    ev.require_reliable_classifier(val_acc)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _manifest(out_dir, "leakage", "", args.seed, [path], started)
    print(f"leakage: TargetShare {report.target_share:.4f}")
    return 0


def cmd_a2l(args):
    started = round(time.time(), 3)
    model, meta = _load_model_dir(args.checkpoint)
    dataset = load_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_model = model.cfg
    if model.a2l is None:
        from .models import A2LParams
        model.a2l = A2LParams(cfg_model, stream(args.seed, "a2l-init"))
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
    _manifest(out_dir, f"a2l --mode {args.mode}", "", args.seed, files, started)
    print(f"a2l: {args.mode} eval latent MSE {mse:.6f}")
    return 0


def _a2l_eval_mse(model, dataset, seed, pointwise=False):
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
    "vmf-large": dict(d_a=8, d_z=4, n_embodiments=5, kappa=8.0),
}


def cmd_verify(args):
    started = round(time.time(), 3)
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
    ok = all(r.get("ok") and r["ce_gap"] < 0.05 and r["invariance_stat"] < 0.05
             and r["max_principal_angle"] < 0.1 for r in saddle_stats)
    checks.append({"check": "saddle", "seeds": seeds, "passed": bool(ok),
                   "statistic": saddle_stats,
                   "threshold": {"ce_gap": 0.05, "invariance_stat": 0.05,
                                 "max_principal_angle": 0.1}})

    mgf_stat = _mgf_check(preset, args.seed)
    checks.append({"check": "mgf", "seeds": [args.seed],
                   "passed": mgf_stat["worst_z"] < 3.0,
                   "statistic": mgf_stat, "threshold": {"worst_z": 3.0}})

    bessel_res = _bessel_recurrence_residual()
    checks.append({"check": "bessel-recurrence", "seeds": [],
                   "passed": bessel_res < 1e-8,
                   "statistic": {"max_relative_residual": bessel_res},
                   "threshold": {"max_relative_residual": 1e-8}})

    lemma = theory.idm_lemma_check(seed=args.seed)
    lemma_ok = (lemma["premise_met"] and lemma["r2_forward"] > 0.99
                and lemma["r2_inverse"] > 0.99
                and lemma["r2_shuffled"] < 0.1
                and lemma["state_dependence_gap"] < 0.01)
    checks.append({"check": "idm-lemma", "seeds": [args.seed],
                   "passed": bool(lemma_ok), "statistic": lemma,
                   "threshold": {"r2": 0.99, "r2_shuffled": 0.1,
                                 "state_dependence_gap": 0.01}})

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "verify.json"
    _write_json(path, {"preset": args.preset, "checks": checks})
    _manifest(out_dir, f"verify --preset {args.preset}", "", args.seed,
              [path], started)
    n_pass = sum(c["passed"] for c in checks)
    print(f"verify: {n_pass}/{len(checks)} checks passed")
    return 0 if n_pass == len(checks) else 2


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

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--spec", help="flat-text config with [dgp]/[data] sections")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train one variant")
    p.add_argument("--variant", required=True)
    p.add_argument("--config", help="flat-text config with a [train] section")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="transfer evaluation over checkpoints")
    p.add_argument("--checkpoints", required=True,
                   help="comma-separated name=dir entries")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=50)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("probe", help="action probe + latent recovery scoring")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("leakage", help="embodiment leakage measurement")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_leakage)

    p = sub.add_parser("a2l", help="train the action-to-latent controller")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("sequence", "pointwise", "ft"),
                   default="sequence")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_a2l)

    p = sub.add_parser("verify", help="numerical identifiability checks")
    p.add_argument("--preset", default="vmf-default")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, KeyError, ValueError, OSError,
            TrainingAborted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
