"""Output checks that do not trust the program's own readers or metrics.

Every check raises CheckFailed with a message naming what was wrong. The
binary formats are parsed here from their documented layouts, and the
quantities compared against (DGP transitions, SSIM/PSNR/MSE, checkpoint
checksums) are recomputed in float64.
"""

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---- manifests and determinism ----

def check_manifest(out_dir, command, seed):
    """manifest.json lists exactly the written files, with their SHA-256."""
    out_dir = Path(out_dir)
    man = json.loads((out_dir / "manifest.json").read_text())
    require(man["command"] == command, f"manifest command {man['command']!r} != {command!r}")
    require(man["seed"] == seed, f"manifest seed {man['seed']} != {seed}")
    names = sorted(man["checksums"])
    require(names == man["files"], "manifest files and checksums disagree")
    require(names, "manifest lists no files")
    for name in names:
        require((out_dir / name).is_file(), f"manifest names missing file {name}")
        got = sha256(out_dir / name)
        require(got == man["checksums"][name], f"{name}: sha256 {got} != manifest")
    extra = {p.name for p in out_dir.iterdir()} - set(names) - {"manifest.json"}
    require(not extra, f"files not in manifest: {sorted(extra)}")


def output_digest(out_dir):
    """Digest of everything a command wrote, manifest timestamps excluded."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            man = json.loads(data)
            man.pop("started", None)
            man.pop("finished", None)
            data = json.dumps(man, sort_keys=True).encode()
        h.update(path.name.encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# ---- binary formats ----

def _read_record(buf, pos):
    (nlen,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    name = buf[pos:pos + nlen].decode("utf-8")
    pos += nlen
    rank = buf[pos]
    pos += 1
    shape = struct.unpack_from(f"<{rank}I", buf, pos)
    pos += 4 * rank
    n = int(np.prod(shape)) if rank else 1
    vals = np.frombuffer(buf, dtype="<f4", count=n, offset=pos).reshape(shape)
    return name, vals, pos + 4 * n


def read_checkpoint(path):
    """name -> float32 array, from the SCAR checkpoint layout."""
    buf = Path(path).read_bytes()
    require(buf[:4] == b"SCAR", f"{path}: bad magic")
    version, count = struct.unpack_from("<II", buf, 4)
    require(version == 1, f"{path}: version {version}")
    pos, out = 12, {}
    for _ in range(count):
        name, vals, pos = _read_record(buf, pos)
        out[name] = vals
    require(pos == len(buf), f"{path}: {len(buf) - pos} trailing bytes")
    return out


def read_dataset(path):
    """(header, {record name: array}) from the dataset layout."""
    buf = Path(path).read_bytes()
    (hlen,) = struct.unpack_from("<I", buf, 0)
    header = json.loads(buf[4:4 + hlen])
    pos, records = 4 + hlen, {}
    while pos < len(buf):
        name, vals, pos = _read_record(buf, pos)
        records[name] = vals
    return header, records


def checkpoint_checksum(tensors):
    """The model.json checksum: SHA-256 over sorted names and <f4 bytes."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode("utf-8"))
        h.update(np.asarray(tensors[name], "<f4").tobytes())
    return h.hexdigest()


# ---- train-pipeline ----

def check_dgp_dataset(path, spec_cls, m_target, source_count, T):
    """Every stored transition obeys the DGP equations, recomputed in float64
    from the spec's matrices: a = Q_e u + b_e, s' = mix(s) + g(s) W a,
    x = [tanh(P s), code_e + lighting]."""
    header, rec = read_dataset(path)
    spec = spec_cls(**header["spec"])
    require(spec.squash and spec.gain_field and not spec.action_squash
            and spec.mixing == "mix", "the check covers the default DGP flags only")
    n_ep = header["n_episodes"]
    want = [m_target if e == header["target_e"] else source_count
            for e in range(spec.n_embodiments)]
    require(header["counts"] == want, f"episode counts {header['counts']} != {want}")
    require(len(rec) == 5 * n_ep, "record count does not match n_episodes")

    def stack(field):
        return np.stack([rec[f"ep{i:05d}.{field}"] for i in range(n_ep)]).astype(np.float64)

    x, a, u, s, meta = (stack(f) for f in ("x", "a", "u", "s", "meta"))
    require(x.shape == (n_ep, T, spec.d_x) and s.shape == (n_ep, T, spec.d_s),
            f"episode shape {x.shape} != ({n_ep}, {T}, {spec.d_x})")
    e = meta[:, 0].astype(int)
    require(np.array_equal(np.bincount(e, minlength=spec.n_embodiments), want),
            "embodiment labels disagree with the header counts")
    require(np.all(np.abs(u) <= 1.0), "unified actions outside [-1, 1]")
    Q = np.stack([np.asarray(q, np.float64) for q in spec.Q])[e]
    b = np.stack([np.asarray(v, np.float64) for v in spec.b])[e]
    a_ref = np.einsum("nij,ntj->nti", Q, u) + b[:, None, :]
    st = s[:, :-1]
    mix = 0.9 * st + 0.2 * np.tanh(st @ np.asarray(spec.A_mix, np.float64).T) + spec.goal
    g = 1.0 + 0.5 * np.tanh(st[..., :1])
    s_ref = mix + g * (a @ np.asarray(spec.W_dyn, np.float64).T)
    n_state = spec.d_x - spec.nuisance_dim
    x_state = np.tanh(s @ np.asarray(spec.P, np.float64).T)
    codes = np.stack([np.asarray(c, np.float64) for c in spec.nuisance_codes])[e]
    x_nuis = codes[:, None, :] + meta[:, 1][:, None, None]
    for label, got, ref in (("action", a, a_ref), ("dynamics", s[:, 1:], s_ref),
                            ("render", x[..., :n_state], x_state),
                            ("nuisance", x[..., n_state:], np.broadcast_to(x_nuis, x[..., n_state:].shape))):
        err = float(np.abs(got - ref).max())
        require(err < 1e-4, f"DGP {label} equation violated by {err:.3g}")


def check_loss_decreases(log_csv, n_rows, window=50):
    rows = list(csv.DictReader(open(log_csv)))
    require(len(rows) == n_rows, f"{log_csv}: {len(rows)} rows, expected {n_rows}")
    l_rec = np.array([float(r["L_rec"]) for r in rows])
    require(np.all(np.isfinite(l_rec)), f"{log_csv}: non-finite L_rec")
    first, last = l_rec[:window].mean(), l_rec[-window:].mean()
    require(last < first, f"{log_csv}: mean L_rec {last:.5f} over the last {window} "
                          f"steps is not below {first:.5f} over the first {window}")


def check_model_dir(run_dir):
    """checkpoint.bin parses and matches the checksum in model.json."""
    tensors = read_checkpoint(Path(run_dir) / "checkpoint.bin")
    meta = json.loads((Path(run_dir) / "model.json").read_text())
    require(meta["checksum"] == checkpoint_checksum(tensors), "model.json checksum mismatch")
    require(all(np.all(np.isfinite(t)) for t in tensors.values()), "non-finite parameter")
    return tensors


# ---- eval-rollout ----

def ssim_global_ref(a, b):
    """Whole-frame SSIM for unit dynamic range (K1 = 0.01, K2 = 0.03)."""
    a = np.asarray(a, np.float64).ravel()
    b = np.asarray(b, np.float64).ravel()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    ma, mb = a.mean(), b.mean()
    va, vb = ((a - ma) ** 2).mean(), ((b - mb) ** 2).mean()
    cov = ((a - ma) * (b - mb)).mean()
    return ((2 * ma * mb + c1) * (2 * cov + c2)) / ((ma * ma + mb * mb + c1) * (va + vb + c2))


def image_metrics_ref(pred, true, psnr_cap=99.0):
    pred = np.asarray(pred, np.float64)
    true = np.asarray(true, np.float64)
    mse = float(((pred - true) ** 2).mean())
    psnr = psnr_cap if mse == 0 else min(10.0 * math.log10(1.0 / mse), psnr_cap)
    ssims = [ssim_global_ref(p, t) for p, t in zip(pred, true)]
    return {"ssim": float(np.mean(ssims)), "psnr": psnr, "mse": mse, "ssim_l": ssims[-1]}


def close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def check_metrics_csv(path, methods):
    rows = list(csv.DictReader(open(path)))
    want = [(m, t) for m in sorted(methods) for t in ("target", "transfer")]
    require([(r["method"], r["task"]) for r in rows] == want,
            f"metrics.csv rows {[(r['method'], r['task']) for r in rows]} != {want}")
    for r in rows:
        ssim, psnr, mse = float(r["SSIM"]), float(r["PSNR"]), float(r["MSE"])
        require(-1.0 <= ssim <= 1.0 and -1.0 <= float(r["SSIM-L"]) <= 1.0,
                f"SSIM outside [-1, 1]: {r}")
        require(psnr <= 99.0 and math.isfinite(psnr), f"PSNR {psnr} above the 99 dB cap")
        require(0.0 <= mse and math.isfinite(mse), f"bad MSE {mse}")


def check_leakage_json(path):
    rep = json.loads(Path(path).read_text())
    src, tgt = rep["SourceProb"], rep["TargetProb"]
    require(rep["classifier_val_acc"] >= 0.9, f"classifier_val_acc {rep['classifier_val_acc']}")
    require(0.0 <= src <= 1.0 and 0.0 <= tgt <= 1.0, f"probabilities {src}, {tgt} outside [0, 1]")
    require(src + tgt <= 1.0 + 1e-9, f"SourceProb + TargetProb = {src + tgt} > 1")
    require(close(rep["TargetSource"], tgt - src), "TargetSource != TargetProb - SourceProb")


# ---- small-graph ----

def check_verify_json(path, seed):
    """`latact verify --preset vmf-small` ran its four checks and each one's
    statistics meet its threshold: the adversarial encoder lands in the
    complement of the cluster-difference span (seeds N..N+2), the vMF MGF
    closed form agrees with Monte Carlo, the Bessel recurrence holds, and
    the inverse model recovers the action independent of state. The
    statistics are held to verify's thresholds here, apart from its own
    `passed` flags."""
    rep = json.loads(Path(path).read_text())
    require(rep["preset"] == "vmf-small", f"preset {rep['preset']!r}")
    by_name = {c["check"]: c for c in rep["checks"]}
    want = ["bessel-recurrence", "idm-lemma", "mgf", "saddle"]
    require(sorted(by_name) == want and len(rep["checks"]) == 4,
            f"checks {[c['check'] for c in rep['checks']]} != {want}")
    saddle = by_name["saddle"]
    require(saddle["seeds"] == [seed, seed + 1, seed + 2], f"saddle seeds {saddle['seeds']}")
    for r in saddle["statistic"]:
        require(r["ok"] and r["ce_gap"] < 0.05 and r["invariance_stat"] < 0.05
                and r["max_principal_angle"] < 0.1, f"saddle statistics out of range: {r}")
    mgf = by_name["mgf"]["statistic"]
    require(mgf["n_probes"] == 20 and mgf["worst_z"] < 3.0, f"mgf statistics out of range: {mgf}")
    res = by_name["bessel-recurrence"]["statistic"]["max_relative_residual"]
    require(res < 1e-8, f"Bessel recurrence residual {res}")
    lemma = by_name["idm-lemma"]["statistic"]
    require(lemma["premise_met"] and lemma["r2_forward"] > 0.99 and lemma["r2_inverse"] > 0.99
            and lemma["r2_shuffled"] < 0.1 and lemma["state_dependence_gap"] < 0.01,
            f"lemma statistics out of range: {lemma}")
    failed = [c["check"] for c in rep["checks"] if c["passed"] is not True]
    require(not failed, f"verify marks {failed} as failed although their statistics pass")


def check_probe_json(path):
    rep = json.loads(Path(path).read_text())

    def numbers(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                yield from numbers(v)
        else:
            yield obj

    require(all(math.isfinite(v) for v in numbers(rep)), "probe.json holds a non-finite value")
    r2 = [*rep["r2_forward"].values(), *rep["r2_inverse"].values(),
          rep["min_r2_forward"], rep["min_r2_inverse"]]
    require(max(r2) <= 1.0, f"R^2 above 1: {max(r2)}")
    require(0.0 <= rep["probe_accuracy"] <= 1.0, f"probe_accuracy {rep['probe_accuracy']}")
    require(min(rep["train_mse"], rep["eval_mse"]) >= 0.0, "negative probe MSE")


def check_a2l_outputs(in_dir, out_dir, mode):
    """The inverse model is never updated; the forward model only in ft mode."""
    before = read_checkpoint(Path(in_dir) / "checkpoint.bin")
    after = check_model_dir(out_dir)
    for prefix in ("idm.",) + (("fdm.",) if mode == "sequence" else ()):
        names = sorted(k for k in before if k.startswith(prefix))
        require(names and names == sorted(k for k in after if k.startswith(prefix)),
                f"{prefix}* tensor names changed")
        for k in names:
            require(before[k].tobytes() == after[k].tobytes(), f"a2l {mode} changed {k}")
    if mode == "ft":
        require(any(before[k].tobytes() != after[k].tobytes()
                    for k in before if k.startswith("fdm.")), "a2l ft left fdm.* untouched")
    require(any(k.startswith("a2l.") for k in after), "no a2l.* tensors written")
    rep = json.loads((Path(out_dir) / "a2l.json").read_text())
    require(rep["mode"] == mode and math.isfinite(rep["eval_latent_mse"])
            and rep["eval_latent_mse"] >= 0, f"bad a2l.json {rep}")


def check_bessel(bessel_I, iv):
    """theory.bessel_I against scipy.special.iv across the series and
    asymptotic branches."""
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.5):
        for r in np.linspace(0.05, 60.0, 240):
            ref = float(iv(nu, r))
            worst = max(worst, abs(bessel_I(nu, float(r)) - ref) / ref)
    require(worst < 1e-12, f"bessel_I relative error {worst:.3g} >= 1e-12")
    return worst
