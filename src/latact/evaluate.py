"""Evaluation protocols: image metrics, transfer rollouts, embodiment
leakage, action probing, and latent-recovery scoring against the synthetic
ground truth."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .autodiff import gelu_backward, gelu_forward, log_softmax, no_grad
from .fitting import fit_logistic_probe, fit_mlp, r2_score
from .models import (
    cond_sequence,
    idm_infer,
    pad_actions,
    rollout_generate,
)
from .nn import init_linear
from .optim import AdamW
from .rng import stream
from .training import posterior_mean_targets
from .worldgen import frame_from_obs, generate_episode, transfer_spec

F32 = np.float32

PSNR_CAP_DB = 99.0
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2
CLASSIFIER_MIN_ACC = 0.9   # below this the leakage diagnostic is refused
CLASSIFIER_STEPS = 3000


@dataclass
class MetricRow:
    ssim: float
    psnr: float
    mse: float
    ssim_l: float


@dataclass
class LeakageReport:
    source_prob: float
    target_prob: float

    @property
    def target_share(self):
        return self.target_prob / (self.target_prob + self.source_prob)

    @property
    def target_source(self):
        return self.target_prob - self.source_prob


def ssim_global(a, b):
    """SSIM with whole-frame statistics (frames are smaller than the usual
    11x11 window), constants for unit dynamic range. Reduces over the last
    two axes, so (..., H, W) stacks give one value per frame."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    axes = (-2, -1)
    mu_a, mu_b = a.mean(axes, keepdims=True), b.mean(axes, keepdims=True)
    va, vb = a.var(axes), b.var(axes)
    cov = ((a - mu_a) * (b - mu_b)).mean(axes)
    mu_a, mu_b = mu_a[..., 0, 0], mu_b[..., 0, 0]
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a**2 + mu_b**2 + SSIM_C1) * (va + vb + SSIM_C2)
    return num / den


def image_metrics(pred_frames, true_frames):
    """MetricRow over a predicted-future frame stack."""
    pred = np.asarray(pred_frames, np.float64)
    true = np.asarray(true_frames, np.float64)
    if pred.shape != true.shape:
        raise ValueError(f"frame shape mismatch: {pred.shape} vs {true.shape}")
    if pred.ndim != 3 or pred.shape[0] == 0:
        raise ValueError("expected a nonempty (n_frames, H, W) stack")
    mse = float(((pred - true) ** 2).mean())
    psnr = PSNR_CAP_DB if mse == 0 else min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)
    ssims = ssim_global(pred, true)
    return MetricRow(ssim=float(np.mean(ssims)), psnr=float(psnr),
                     mse=mse, ssim_l=float(ssims[-1]))


# ---- transfer evaluation ----

def _stacked(episodes):
    """The fields a rollout reads of an episode, `x` and `a`, stacked on a
    leading episode axis."""
    return SimpleNamespace(x=np.stack([ep.x for ep in episodes]),
                           a=np.stack([ep.a for ep in episodes]))


def _conditioning(model, episode):
    """Conditioning tokens of an episode, or of a stack of them (`x` and `a`
    with a leading batch axis); builds no tape."""
    with no_grad():
        if model.gtcond is not None:
            return cond_sequence(pad_actions(episode.a, model.cfg.d_a_max), model.gtcond)
        post = idm_infer(episode.x, model.idm)
        return cond_sequence(post.mu, model.idm)


def rollout_episode(model, episode, rng, c_seq=None):
    """Predict the episode's future tokens from its context block,
    conditioned on `c_seq`, by default the episode's own conditioning. An
    episode stack (see `_stacked`) takes one Generator per episode."""
    if c_seq is None:
        c_seq = _conditioning(model, episode)
    f_hist = model.cfg.f_hist
    return rollout_generate(episode.x[..., :f_hist, :], c_seq, model.fdm, rng)


# `frame_from_obs` renders whole stacks; this name stays because
# perfbench/workloads.py calls it
frames_from_obs_seq = frame_from_obs


def eval_episodes(spec, seed, n_episodes, embodiment):
    """Held-out episodes drawn from a stream disjoint from training data."""
    return [generate_episode(seed, embodiment, spec.T, spec, index=10_000 + i)
            for i in range(n_episodes)]


def evaluate_rollouts(models, episodes, spec, seed):
    """Per-model, per-episode image metrics of predicted vs true future
    frames, plus token-space MSE; deterministic given the seed. The true
    frames are rendered once, from the shortest history on, and every model
    slices its own future from that stack. Each model rolls out all
    episodes in one call, episode i with its own `rollout:{i}` stream."""
    stack = _stacked(episodes)
    f_min = min(model.cfg.f_hist for model in models.values())
    true_frames = frame_from_obs(stack.x[:, f_min:], spec)
    rows, token_mse = {}, {}
    for name, model in models.items():
        f_hist = model.cfg.f_hist
        rngs = [stream(seed, f"rollout:{i}") for i in range(len(episodes))]
        pred = rollout_episode(model, stack, rngs)
        pred_frames = frame_from_obs(pred[:, f_hist:], spec)
        rows[name] = [image_metrics(p, t[f_hist - f_min:])
                      for p, t in zip(pred_frames, true_frames)]
        token_mse[name] = [float(((p[f_hist:] - x[f_hist:]) ** 2).mean())
                           for p, x in zip(pred, stack.x)]
    return rows, token_mse


def run_transfer_eval(models, spec, seed, n_episodes, target_e):
    """Target-task and transfer-task metric tables per method, each on
    `n_episodes` held-out episodes of embodiment `target_e`.

    The transfer task is the same process with the goal offset mirrored.
    Returns {method: {task: {"rows": [MetricRow], "mse": mean frame MSE,
    "token_mse": mean token MSE}}}.
    """
    tasks = {"target": spec, "transfer": transfer_spec(spec)}
    out = {name: {} for name in models}
    for task, task_spec in tasks.items():
        episodes = eval_episodes(task_spec, seed, n_episodes, target_e)
        all_rows, all_token_mse = evaluate_rollouts(models, episodes, task_spec, seed)
        for name in models:
            rows, token_mse = all_rows[name], all_token_mse[name]
            out[name][task] = {
                "rows": rows,
                "mse": float(np.mean([r.mse for r in rows])),
                "ssim": float(np.mean([r.ssim for r in rows])),
                "psnr": float(np.mean([r.psnr for r in rows])),
                "ssim_l": float(np.mean([r.ssim_l for r in rows])),
                "token_mse": float(np.mean(token_mse)),
            }
    return out


# ---- frame classifier and leakage ----

class FrameClassifier:
    """Minimal convolutional stack: one 3x3 conv (im2col + matmul), gelu,
    flatten, linear head. No pooling — the embodiment cue is a few corner
    pixels and spatial pooling would dilute it.

    A rendered frame is mostly zeros, and every all-zero patch has the same
    conv and gelu output. So the conv and gelu run on the nonzero patches
    plus one all-zero patch that stands for every other position."""

    channels = 8

    def __init__(self, n_classes, rng, frame_size):
        self.w_conv, self.b_conv = init_linear(rng, 9, self.channels)
        self.positions = (frame_size - 2) ** 2
        self.w_head, self.b_head = init_linear(rng, self.positions * self.channels, n_classes)

    @staticmethod
    def _patches(frames):
        """(n, (H-2)(W-2), 9) 3x3 patches of an (n, H, W) frame stack."""
        frames = np.asarray(frames, F32)
        n, H, W = frames.shape
        out = np.empty((n, H - 2, W - 2, 9), F32)
        for k in range(9):
            dy, dx = divmod(k, 3)
            out[..., k] = frames[:, dy:H - 2 + dy, dx:W - 2 + dx]
        return out.reshape(n, -1, 9)

    @classmethod
    def _nonzero_patches(cls, frames):
        """(rows, where): the (r, 9) patches of a frame stack with a bit set
        (so -0.0 counts), and their indices into its (n * positions) patches."""
        patches = cls._patches(frames).reshape(-1, 9)
        where = np.flatnonzero(patches.view(np.uint32).any(axis=1))
        return patches[where], where

    def _forward(self, rows, where, n):
        """(x, t, h, logits) of n frames given by their nonzero patches
        `rows` at `where`: the conv output x and gelu's tanh term t of those
        rows and of the all-zero patch (the last row), the flat gelu
        features h and the head's logits. The operations and their order
        are those of the autodiff engine's matmul, add, gelu and reshape, so
        the bits are a taped forward's on the dense patches."""
        x = np.concatenate([rows, np.zeros((1, 9), F32)]) @ self.w_conv.data
        x += self.b_conv.data
        t, y = gelu_forward(x)
        h = np.empty((n, self.positions * self.channels), F32)
        h[:] = np.tile(y[-1], self.positions)   # the all-zero patch's; rows of 8 broadcast slowly
        h.reshape(-1, self.channels)[where] = y[:-1]
        return x, t, h, h @ self.w_head.data + self.b_head.data

    def probs(self, frames):
        *_, logits = self._forward(*self._nonzero_patches(frames), len(frames))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def params(self):
        return {"conv.w": self.w_conv, "conv.b": self.b_conv,
                "head.w": self.w_head, "head.b": self.b_head}


def train_frame_classifier(dataset, seed):
    """Independent single-frame embodiment classifier, trained
    CLASSIFIER_STEPS steps on four random frames per dataset episode;
    returns (classifier, validation accuracy)."""
    rng = stream(seed, "frame-clf")
    obs, labels = [], []
    for ep in dataset.episodes:
        picks = rng.choice(len(ep.x), size=min(4, len(ep.x)), replace=False)
        obs.append(ep.x[picks])
        labels += [ep.e] * len(picks)
    frames = frame_from_obs(np.concatenate(obs), dataset.spec)
    labels = np.array(labels)
    perm = rng.permutation(len(frames))
    frames, labels = frames[perm], labels[perm]
    n_val = max(len(frames) // 5, 1)
    tr_f, tr_l = frames[n_val:], labels[n_val:]
    va_f, va_l = frames[:n_val], labels[:n_val]

    clf = FrameClassifier(dataset.spec.n_embodiments, rng,
                          frame_size=dataset.spec.frame_size)
    opt = AdamW(clf.params(), lr=1e-2)
    # Closed-form steps, as in `theory.saddle_train`, with no tape. Each
    # training frame's nonzero patches are found once, in chunks so that
    # the dense patches of all frames never exist at once.
    P, n = clf.positions, min(128, len(tr_f))
    found = [clf._nonzero_patches(tr_f[i:i + n]) for i in range(0, len(tr_f), n)]
    all_rows = np.concatenate([rows for rows, _ in found])
    all_where = np.concatenate([where + i * n * P for i, (_, where) in enumerate(found)])
    counts = np.bincount(all_where // P, minlength=len(tr_f))
    starts = np.cumsum(counts) - counts
    pos = all_where % P
    patches = np.zeros((n * P, 9), F32)      # the batch's patches; zero off its rows
    where = np.empty(0, np.intp)
    for _ in range(CLASSIFIER_STEPS):
        idx = rng.integers(0, len(tr_f), n)
        patches[where] = 0.0
        c = counts[idx]
        sel = np.repeat(starts[idx] - (np.cumsum(c) - c), c) + np.arange(c.sum())  # into all_rows
        where = np.repeat(np.arange(n) * P, c) + pos[sel]
        rows = patches[where] = all_rows[sel]
        _classifier_grads(clf, patches, rows, where, tr_l[idx])
        opt.step()
    val_acc = float((clf.probs(va_f).argmax(1) == va_l).mean())
    return clf, val_acc


def _classifier_grads(clf, patches, rows, where, labels):
    """Set each classifier parameter's grad to that of the mean softmax
    cross-entropy on a batch given by its (n * positions, 9) dense patches
    and its nonzero patch `rows` at `where`, in the operation order of the
    autodiff engine's backward passes over `FrameClassifier._forward` and
    softmax_cross_entropy, so the bits match a taped step."""
    n = len(labels)
    x, t, h, logits = clf._forward(rows, where, n)
    g = np.exp(log_softmax(logits))
    g[np.arange(n), labels] -= 1.0
    g /= n
    clf.b_head.grad = g.sum(axis=0)
    clf.w_head.grad = h.T @ g
    dh = g @ clf.w_head.data.T
    slope = gelu_backward(x, t, 1.0)          # gelu' of the rows: times 1 changes no bit
    d = (dh * np.tile(slope[-1], clf.positions)).reshape(-1, clf.channels)
    d[where] = dh.reshape(-1, clf.channels)[where] * slope[:-1]
    # the adds of d.sum(axis=(0, 1)) over (n, positions, channels), faster
    clf.b_conv.grad = np.einsum("ijk->k", d.reshape(n, -1, clf.channels))
    # dense: on the nonzero rows alone, BLAS splits the sum at other points
    clf.w_conv.grad = patches.T @ d


def leakage_rollouts(model, dataset, seed, pairs_per_source=10):
    """Cross-conditioned rollouts: the conditioning of a source-embodiment
    episode (its inferred latents, or its raw actions for a raw-action
    checkpoint) drives generation from a target-embodiment context."""
    spec = dataset.spec
    target_e = dataset.target_e
    sources = [e for e in spec.embodiments if e != target_e]
    targets = [generate_episode(seed, target_e, spec.T, spec, index=30_000 + i)
               for i in range(pairs_per_source)]
    pairs = [(e_s, i) for e_s in sources for i in range(pairs_per_source)]
    srcs = [generate_episode(seed, e_s, spec.T, spec, index=20_000 + i) for e_s, i in pairs]
    rngs = [stream(seed, f"leak:{e_s}:{i}") for e_s, i in pairs]
    pred = rollout_episode(model, _stacked([targets[i] for _, i in pairs]), rngs,
                           c_seq=_conditioning(model, _stacked(srcs)))
    frames = frame_from_obs(pred[:, model.cfg.f_hist:], spec)
    return [(f, e_s, target_e) for f, (e_s, _) in zip(frames, pairs)]


def require_reliable_classifier(val_acc):
    """Refuse a frame classifier whose validation accuracy is too low for
    the leakage diagnostic to mean anything."""
    if val_acc < CLASSIFIER_MIN_ACC:
        raise ValueError(
            f"frame classifier validation accuracy {val_acc:.3f} < {CLASSIFIER_MIN_ACC}; "
            "leakage diagnostic unreliable")


def leakage_eval(rollouts, classifier, val_acc):
    """Leakage metrics over predicted future frames only, averaged over
    source embodiments."""
    require_reliable_classifier(val_acc)
    by_source = {}
    for frames, e_s, e_t in rollouts:
        p = classifier.probs(frames)
        by_source.setdefault(e_s, []).append(
            (float(p[:, e_s].mean()), float(p[:, e_t].mean())))
    source_probs, target_probs = [], []
    for e_s, vals in sorted(by_source.items()):
        source_probs.append(np.mean([v[0] for v in vals]))
        target_probs.append(np.mean([v[1] for v in vals]))
    return LeakageReport(source_prob=float(np.mean(source_probs)),
                         target_prob=float(np.mean(target_probs)))


# ---- action probe ----

def action_probe(model, dataset, seed, steps=800, n_eval=20):
    """Small regressor from posterior-mean latents to raw actions on the
    target embodiment; train on the dataset's target episodes, evaluate on
    held-out episodes. The probed model is never mutated."""
    spec = dataset.spec
    target_e = dataset.target_e

    def collect(episodes):
        z = posterior_mean_targets(model, episodes).reshape(-1, model.cfg.d_z)
        return z, np.vstack([ep.a for ep in episodes]).astype(F32)

    train_eps = dataset.by_embodiment(target_e)
    eval_eps = eval_episodes(spec, seed, n_eval, target_e)
    z_tr, a_tr = collect(train_eps)
    z_ev, a_ev = collect(eval_eps)
    predict = fit_mlp(z_tr, a_tr, steps=steps, seed=seed)
    report = {}
    for split, (z, a) in (("train", (z_tr, a_tr)), ("eval", (z_ev, a_ev))):
        err = predict(z) - a
        report[f"{split}_mse"] = float((err ** 2).mean())
        report[f"{split}_l1"] = float(np.abs(err).mean())
    return report


# ---- latent recovery ----

def latent_recovery_score(z, u, e_labels, seed=0, mlp_steps=600):
    """Bijection evidence (per-embodiment u <-> z regression R^2, held out)
    and an invariance probe with the mutual-information lower bound
    I(e;z) >= H(e) - CE_probe."""
    z = np.asarray(z, F32)
    u = np.asarray(u, F32)
    e_labels = np.asarray(e_labels)
    embodiments = sorted(set(int(v) for v in e_labels))
    r2_fwd, r2_inv = {}, {}
    for e in embodiments:
        mask = e_labels == e
        ue, ze = u[mask], z[mask]
        n = len(ue)
        tr, te = slice(0, n // 2), slice(n // 2, n)
        fwd = fit_mlp(ue[tr], ze[tr], steps=mlp_steps, seed=seed + e)
        inv = fit_mlp(ze[tr], ue[tr], steps=mlp_steps, seed=seed + 50 + e)
        # variance-weighted: a posterior dim shrunk onto the prior carries no
        # signal and should not dominate the bijection score
        r2_fwd[e] = r2_score(ze[te], fwd(ue[te]), weighting="variance")
        r2_inv[e] = r2_score(ue[te], inv(ze[te]), weighting="variance")
    probe, ce = fit_logistic_probe(z, e_labels, len(embodiments), seed=seed)
    acc = float((probe(z).argmax(1) == e_labels).mean())
    h_e = math.log(len(embodiments))
    return {
        "r2_forward": r2_fwd,
        "r2_inverse": r2_inv,
        "min_r2_forward": min(r2_fwd.values()),
        "min_r2_inverse": min(r2_inv.values()),
        "probe_ce": ce,
        "probe_accuracy": acc,
        "mi_lower_bound": max(h_e - ce, 0.0),
    }


def latents_with_ground_truth(model, dataset, max_per_embodiment=40):
    """Posterior-mean latents with matched ground-truth u and embodiment
    labels, for recovery scoring."""
    picked, counts = [], {}
    for ep in dataset.episodes:
        if counts.get(ep.e, 0) >= max_per_embodiment:
            continue
        counts[ep.e] = counts.get(ep.e, 0) + 1
        picked.append(ep)
    z = posterior_mean_targets(model, picked).reshape(-1, model.cfg.d_z)
    return (z, np.vstack([ep.u for ep in picked]).astype(F32),
            np.concatenate([np.full(len(ep.u), ep.e) for ep in picked]))

