"""Small regression/probe utilities shared by evaluation and theory checks."""

import numpy as np

from .autodiff import Tensor, no_grad, softmax_cross_entropy
from .nn import Mlp
from .optim import AdamW
from .rng import stream
from .training import fit, rec_only

F32 = np.float32


def r2_score(y_true, y_pred, weighting="uniform"):
    """Coefficient of determination averaged over output dims.

    `weighting="variance"` weights each dim by its target variance, so
    near-constant dims (for example posterior dims shrunk onto the prior)
    do not dominate the average.
    """
    y_true = np.asarray(y_true, np.float64)
    y_pred = np.asarray(y_pred, np.float64)
    sse = ((y_true - y_pred) ** 2).sum(axis=0)
    sst = ((y_true - y_true.mean(axis=0)) ** 2).sum(axis=0)
    per_dim = 1.0 - sse / np.maximum(sst, 1e-12)
    if weighting == "variance":
        w = np.maximum(sst, 1e-12)
        return float((per_dim * w).sum() / w.sum())
    if weighting != "uniform":
        raise ValueError(f"unknown weighting {weighting!r}")
    return float(np.mean(per_dim))


def fit_linear(x, y):
    """Least-squares affine fit; returns predict(x)."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    xb = np.hstack([x, np.ones((len(x), 1))])
    coef, *_ = np.linalg.lstsq(xb, y, rcond=None)

    def predict(q):
        q = np.asarray(q, np.float64)
        return np.hstack([q, np.ones((len(q), 1))]) @ coef

    return predict


def fit_mlp(x, y, steps, seed=0):
    """Train a small MLP regressor (two tanh layers of 32) with AdamW on
    minibatches of up to 256 rows; returns predict(x)."""
    x = np.asarray(x, F32)
    y = np.asarray(y, F32)
    rng = stream(seed, "fit-mlp")
    mlp = Mlp([x.shape[1], 32, 32, y.shape[1]], rng)
    params = mlp.params()
    n = len(x)

    def step_fn(step):
        idx = rng.integers(0, n, min(256, n))
        loss = ((mlp(Tensor(x[idx])) - Tensor(y[idx])) ** 2).mean()
        return loss, rec_only(loss)

    fit(step_fn, [AdamW(params, lr=1e-2)], steps, params)

    def predict(q):
        with no_grad():
            return mlp(Tensor(np.asarray(q, F32))).data

    return predict


def fit_logistic_probe(z, labels, n_classes, steps=600, *, seed):
    """Multinomial logistic probe; returns (predict_logits, final mean CE)."""
    z = np.asarray(z, F32)
    labels = np.asarray(labels)
    rng = stream(seed, "fit-probe")
    w = Tensor(rng.normal(0, 0.01, (z.shape[1], n_classes)).astype(F32), requires_grad=True)
    b = Tensor(np.zeros(n_classes, F32), requires_grad=True)
    params = {"w": w, "b": b}
    n = len(z)

    def step_fn(step):
        idx = rng.integers(0, n, min(512, n))
        ce = softmax_cross_entropy(Tensor(z[idx]) @ w + b, labels[idx])
        return ce, rec_only(ce)

    fit(step_fn, [AdamW(params, lr=5e-2)], steps, params)

    def predict_logits(q):
        return np.asarray(q, F32) @ w.data + b.data

    with no_grad():
        final_ce = float(softmax_cross_entropy(Tensor(z) @ w + b, labels).data)
    return predict_logits, final_ce


N_PERMUTATIONS = 200


def energy_permutation_test(x, y, seed):
    """p-value and energy distance for H0: x and y share one distribution,
    by label permutation (Székely & Rizzo 2004). The pooled pairwise
    distances are computed once; every split reads its blocks from them."""
    rng = stream(seed, "energy-perm")
    pooled = np.vstack([np.asarray(x, np.float64), np.asarray(y, np.float64)])
    dist = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)
    n = len(x)

    def energy(order):
        a, b = order[:n], order[n:]
        return (2 * dist[np.ix_(a, b)].mean() - dist[np.ix_(a, a)].mean()
                - dist[np.ix_(b, b)].mean())

    obs = energy(np.arange(len(pooled)))
    hits = 0
    for _ in range(N_PERMUTATIONS):
        if energy(rng.permutation(len(pooled))) >= obs:
            hits += 1
    return (hits + 1) / (N_PERMUTATIONS + 1), obs
