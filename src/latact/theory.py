"""Numerical identifiability checks.

The chain being verified: an adversarial (gradient-reversed) linear encoder
on von Mises-Fisher action clusters is driven into the orthogonal
complement of the cluster-difference subspace; the inverse-dynamics stage
recovers raw actions up to a bijection; the latent, the pushforward of the
unified command, has one law for every embodiment.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax, no_grad
from .fitting import energy_permutation_test, fit_linear, r2_score
from .optim import AdamW
from .rng import stream
from .training import fit, rec_only
from .worldgen import DGPSpec, generate_episode, vmf_sample

F32 = np.float32

SERIES_ASYMPTOTIC_SWITCH = 30.0

# saddle_train draws this many steps' batches per vmf_sample call for each
# game, and holds the chunks of all k games at once: a few MB per chunk,
# where one draw for all steps would dominate peak memory
SADDLE_CHUNK = 250
SADDLE_BATCH = 256    # points per step, split evenly over the clusters


def bessel_log_I(nu, r):
    """log of the modified Bessel function of the first kind I_nu(r).

    Ascending series below the switch point, asymptotic expansion above;
    log-space output avoids overflow for large arguments.
    """
    if nu < 0 or r < 0:
        raise ValueError("requires nu >= 0 and r >= 0")
    if r == 0.0:
        return 0.0 if nu == 0 else -np.inf
    if r < SERIES_ASYMPTOTIC_SWITCH:
        return math.log(_bessel_series(nu, r))
    return _bessel_asymptotic_log(nu, r)


def bessel_I(nu, r):
    return math.exp(bessel_log_I(nu, r))


def _bessel_series(nu, r):
    # I_nu(r) = sum_k (r/2)^(2k+nu) / (k! Gamma(k+nu+1))
    half = r / 2.0
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, 200):
        term *= half * half / (k * (k + nu))
        total += term
        if term < total * 1e-18:
            break
    return total


def _bessel_asymptotic_log(nu, r):
    # I_nu(r) ~ e^r / sqrt(2 pi r) * sum_k (-1)^k a_k(nu) / r^k,
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k); truncated at the
    # smallest term (the series is asymptotic, not convergent).
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = abs(term)
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * r)
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
    return r - 0.5 * math.log(2.0 * math.pi * r) + math.log(total)


def bessel_ratio(d, kappa):
    """I_{d/2}(kappa) / I_{d/2-1}(kappa): mean resultant length of vMF.

    Not used by the checks themselves; it is the oracle the vMF sampler's
    tests compare the sampled mean resultant against."""
    if kappa == 0:
        return 0.0
    return math.exp(bessel_log_I(d / 2.0, kappa) - bessel_log_I(d / 2.0 - 1.0, kappa))


def log_sphere_psi(d, r):
    """log Psi(r) with Psi(r) = (2 pi)^{d/2} r^{1-d/2} I_{d/2-1}(r):
    the spherical integral of exp(<w, x>) at ||w|| = r."""
    if r <= 0:
        raise ValueError("r must be > 0")
    return (d / 2.0) * math.log(2 * math.pi) + (1.0 - d / 2.0) * math.log(r) \
        + bessel_log_I(d / 2.0 - 1.0, r)


def mgf_closed_form(u_tilde, M, v_e, kappa, d_a):
    """Normalized MGF E[exp <u_tilde, M a>] for a ~ vMF(v_e, kappa):
    Psi(sqrt(||M^T u||^2 + 2 kappa <u, M v_e> + kappa^2)) / Psi(kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    u_tilde = np.asarray(u_tilde, np.float64)
    if not np.any(u_tilde):
        return 1.0
    M = np.asarray(M, np.float64)
    v_e = np.asarray(v_e, np.float64)
    r2 = float(M.T @ u_tilde @ (M.T @ u_tilde)) + 2.0 * kappa * float(u_tilde @ (M @ v_e)) + kappa**2
    r = math.sqrt(max(r2, 1e-300))
    return math.exp(log_sphere_psi(d_a, r) - log_sphere_psi(d_a, kappa))


def principal_angles(basis_a, basis_b):
    """Canonical angles between two subspaces, ascending, in radians."""
    qa = _orthonormalize(basis_a)
    qb = _orthonormalize(basis_b)
    svals = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(svals, -1.0, 1.0))


def _orthonormalize(basis):
    basis = np.asarray(basis, np.float64)
    if basis.ndim != 2:
        raise ValueError("basis must be a matrix of column vectors")
    q, r = np.linalg.qr(basis)
    if np.abs(np.diag(r)).min() < 1e-10:
        raise ValueError("rank-deficient basis")
    return q


# ---- vMF saddle experiment ----

@dataclass
class VmfExperiment:
    """Cluster geometry and trainable weights for the saddle check."""

    d_a: int
    d_z: int
    n_embodiments: int
    kappa: float
    centers: np.ndarray        # (|E|, d_a) unit rows
    V: np.ndarray              # (d_a, d_a - d_z) basis of the difference span
    V_perp: np.ndarray         # (d_a, d_z) basis of its complement
    M: np.ndarray              # (d_z, d_a) linear encoder
    W: np.ndarray              # (d_z, |E|) classifier weights
    b: np.ndarray              # (|E|,) classifier bias


def make_vmf_experiment(d_a=6, d_z=3, n_embodiments=4, kappa=8.0, *, seed):
    """Place unit cluster centers so their pairwise differences span a
    (d_a - d_z)-dimensional subspace exactly; each center sits 1.05 rad off
    a common axis orthogonal to that subspace."""
    d_v = d_a - d_z
    if n_embodiments - 1 < d_v:
        raise ValueError("need |E| - 1 >= d_a - d_z for the difference span")
    rng = stream(seed, "vmf-experiment")
    frame = np.linalg.qr(rng.normal(size=(d_a, d_a)))[0]
    v_basis = frame[:, :d_v]            # spans V
    w_axis = frame[:, d_v]              # common component, orthogonal to V
    # simplex directions inside V: |E| unit points whose differences span V
    simplex = _simplex_points(n_embodiments, d_v)
    centers = np.cos(1.05) * w_axis[None, :] + np.sin(1.05) * (simplex @ v_basis.T)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return VmfExperiment(
        d_a=d_a, d_z=d_z, n_embodiments=n_embodiments, kappa=kappa,
        centers=centers, V=v_basis, V_perp=frame[:, d_v:],
        M=rng.normal(0, 0.3, (d_z, d_a)).astype(F32),
        W=rng.normal(0, 0.1, (d_z, n_embodiments)).astype(F32),
        b=np.zeros(n_embodiments, F32),
    )


def _simplex_points(n, d):
    """n unit points in R^d whose pairwise differences span R^d (needs n-1 >= d).

    The points sit at n equally spaced angles t on the trigonometric moment
    curve (cos t, sin t, cos 2t, sin 2t, ...) cut to d coordinates, then
    scaled to unit norm. Over n equally spaced angles the harmonics below
    n/2, and the cosine at n/2, are orthogonal and sum to zero, so the
    unscaled points' differences span R^d.
    """
    t = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(d)
    harmonic = (k // 2 + 1) * t[:, None]
    pts = np.where(k % 2 == 0, np.cos(harmonic), np.sin(harmonic))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def vmf_experiment_data(exp, n_per_class, seed, purpose="saddle-data"):
    rng = stream(seed, purpose)
    x = vmf_sample(exp.centers, exp.kappa, n_per_class, rng).reshape(-1, exp.d_a)
    e = np.repeat(np.arange(exp.n_embodiments), n_per_class)
    perm = rng.permutation(len(x))
    return x[perm], e[perm]


def saddle_train(exps, seeds, steps=8000, n_test=4000):
    """Adversarial training of linear encoders against embodiment
    classifiers: one game per (experiment, seed) pair, all played as one
    stack. Returns one report dict per game; the experiments are not
    modified.

    The classifier descends the softmax cross-entropy; the encoder takes the
    negated classifier gradient (gradient reversal), so one optimizer step
    of each realizes the minimax. Both gradients are computed in closed form
    on the (k, batch, d) stack, in the autodiff engine's operation order,
    with no tape. The experiments must share d_a, d_z and n_embodiments.

    Every step takes a fresh batch from each game's vMF mixture (sampled
    SADDLE_CHUNK steps at a time from the game's own stream, never reused),
    so each game is played against the population objective rather than a
    finite training set (a fixed sample leaves an O(n^{-1/2}) bias in the
    recovered subspace). The learning rates decay linearly to a tenth to
    damp SGD noise near the saddle.
    """
    if len(exps) != len(seeds) or not exps:
        raise ValueError("saddle_train needs one seed per experiment, and at least one")
    for field in ("d_a", "d_z", "n_embodiments"):
        values = sorted({getattr(exp, field) for exp in exps})
        if len(values) > 1:
            raise ValueError(f"saddle_train: the stacked experiments differ in {field}: {values}")
    d_a, d_z, n_e = exps[0].d_a, exps[0].d_z, exps[0].n_embodiments
    held_out = [vmf_experiment_data(exp, n_test // n_e, seed, "saddle-test")
                for exp, seed in zip(exps, seeds)]

    Mt = Tensor(np.stack([exp.M.T for exp in exps]))           # (k, d_a, d_z)
    W = Tensor(np.stack([exp.W for exp in exps]))              # (k, d_z, |E|)
    b = Tensor(np.stack([exp.b for exp in exps])[:, None])     # (k, 1, |E|)
    lr_enc, lr_cls = 2e-3, 2e-2
    opt_enc = AdamW({"Mt": Mt}, lr=lr_enc)
    opt_cls = AdamW({"W": W, "b": b}, lr=lr_cls)
    rngs = [stream(seed, "saddle-batches") for seed in seeds]
    per_class = SADDLE_BATCH // n_e
    # embodiment-major labels, as each chunk's rows are laid out
    onehot = np.repeat(np.eye(n_e, dtype=F32), per_class, axis=0)
    eye = np.eye(d_z)

    for step in range(steps):
        decay = 1.0 - 0.9 * step / steps
        opt_enc.lr = lr_enc * decay
        opt_cls.lr = lr_cls * decay
        j = step % SADDLE_CHUNK
        if j == 0:
            n_chunk = min(SADDLE_CHUNK, steps - step)
            chunks = None   # release the spent chunks before drawing the next
            chunks = [vmf_sample(exp.centers, exp.kappa, per_class * n_chunk, rng)
                      for exp, rng in zip(exps, rngs)]
        xb = np.stack([c[:, j * per_class:(j + 1) * per_class].reshape(-1, d_a)
                       for c in chunks])
        Mt.grad, W.grad, b.grad = _saddle_grads(xb, Mt.data, W.data, b.data, onehot)
        # spectral floor: minimize -mu log det(M M^T + eps I), mu = 1e-3
        M = Mt.data.transpose(0, 2, 1).astype(np.float64)
        G = M @ M.transpose(0, 2, 1) + 1e-6 * eye
        Mt.grad = Mt.grad + (-1e-3 * 2.0 * (np.linalg.inv(G) @ M)).transpose(0, 2, 1).astype(F32)
        opt_enc.step()
        opt_cls.step()

    return [_saddle_report(exp, test, Mt.data[i].copy(), W.data[i].copy(), b.data[i, 0].copy())
            for i, (exp, test) in enumerate(zip(exps, held_out))]


def _saddle_grads(xb, Mt, W, b, onehot):
    """Gradients of the mean softmax cross-entropy of (xb Mt) W + b against
    the one-hot labels, on (k, ...) stacks: the classifier's (W, b) as is,
    the encoder's Mt reversed (gradient reversal at strength 1). The
    operations and their order are those of the autodiff engine's
    softmax_cross_entropy, matmul, add and grl backward passes, so the bits
    match a taped step."""
    z = xb @ Mt
    g = (np.exp(log_softmax(z @ W + b)) - onehot) / len(onehot)
    g_Mt = xb.transpose(0, 2, 1) @ (-1.0 * (g @ W.transpose(0, 2, 1)))
    return g_Mt, z.transpose(0, 2, 1) @ g, g.sum(axis=1, keepdims=True)


def _saddle_report(exp, test, Mt, W, b):
    x_test, e_test = test
    M = Mt.T.astype(np.float64)
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.min() < 1e-6:
        return {"ok": False, "reason": "rank collapse"}

    logits_test = x_test @ M.T @ W.astype(np.float64) + b
    logp_test = log_softmax(logits_test.astype(F32))
    ce_test = float(-logp_test[np.arange(len(e_test)), e_test].mean())
    diffs = [exp.centers[i] - exp.centers[j]
             for i in range(exp.n_embodiments) for j in range(i + 1, exp.n_embodiments)]
    inv_stat = max(np.linalg.norm(M @ d) for d in diffs) / svals.max()
    angles = principal_angles(M.T, exp.V_perp)
    return {
        "ok": True,
        "held_out_ce": ce_test,
        "ln_num_embodiments": math.log(exp.n_embodiments),
        "invariance_stat": float(inv_stat),
        "max_principal_angle": float(angles.max()),
    }


# ---- inverse-dynamics lemma check ----

def make_linear_dgp():
    """Fully linear process: no squash, no gain field, identity mixing.

    Three embodiments, so the pooled raw actions affinely span the whole
    action space; with a single 2-dof embodiment the actions sit on a plane
    and one recovered-action coordinate would be unconstrained by the
    reconstruction loss.
    """
    return DGPSpec(d_u=2, d_a=3, d_s=3, d_x=6, nuisance_dim=0, n_embodiments=3,
                   gain_field=False, squash=False, mixing="identity",
                   lighting_scale=0.0)


def _collect_transitions(spec, n_episodes, T, seed):
    xs, xn, aa, ss = [], [], [], []
    for i in range(n_episodes):
        ep = generate_episode(seed, i % spec.n_embodiments, T, spec, index=i)
        xs.append(ep.x[:-1])
        xn.append(ep.x[1:])
        aa.append(ep.a)
        ss.append(ep.s[:-1])
    return (np.vstack(xs).astype(F32), np.vstack(xn).astype(F32),
            np.vstack(aa).astype(F32), np.vstack(ss).astype(F32))


def train_linear_idm_fdm(spec, steps, seed):
    """Jointly train a linear IDM (observation pair -> recovered action) and
    a linear FDM on the state-reconstruction objective.

    The FDM is parameterized in residual form, next = state + D a_tilde,
    which is exactly expressive for the identity-mixing linear process. A
    free state matrix in the FDM would admit zero-loss optima where the
    recovered action smuggles state information (the state path compensates),
    so the residual form is what makes the state-independence conclusion
    testable rather than assumed.

    Trains on 200 episodes; returns (idm_predict, final full-data loss).
    """
    x_t, x_n, a, s_t = _collect_transitions(spec, 200, spec.T, seed)
    s_n = s_t + a @ spec.W_dyn.T.astype(F32)
    rng = stream(seed, "lemma-train")
    d_in = 2 * spec.d_x
    B = Tensor(rng.normal(0, 0.1, (d_in, spec.d_a)).astype(F32), requires_grad=True)
    b_i = Tensor(np.zeros(spec.d_a, F32), requires_grad=True)
    D = Tensor(rng.normal(0, 0.1, (spec.d_a, spec.d_s)).astype(F32), requires_grad=True)
    params = {"B": B, "b_i": b_i, "D": D}
    pairs = np.hstack([x_t, x_n])

    def loss_on(idx):
        a_tilde = Tensor(pairs[idx]) @ B + b_i
        return (((Tensor(s_t[idx]) + a_tilde @ D) - Tensor(s_n[idx])) ** 2).mean()

    def step_fn(step):
        loss = loss_on(rng.integers(0, len(pairs), 256))
        return loss, rec_only(loss)

    fit(step_fn, [AdamW(params, lr=1e-2, wd=1e-4)], steps, params)
    with no_grad():
        final_loss = float(loss_on(slice(None)).data)

    def idm_predict(x_pair):
        return np.asarray(x_pair, F32) @ B.data + b_i.data

    return idm_predict, final_loss


def state_dependence_gap(a_tilde, a, s):
    """Extra R^2 gained by adding the state when regressing the recovered
    action from the raw action; zero iff the recovery ignores the state."""
    n = len(a)
    tr, te = slice(0, n // 2), slice(n // 2, n)
    fit_a = fit_linear(a[tr], a_tilde[tr])
    fit_as = fit_linear(np.hstack([a, s])[tr], a_tilde[tr])
    r2_a = r2_score(a_tilde[te], fit_a(a[te]))
    r2_as = r2_score(a_tilde[te], fit_as(np.hstack([a, s])[te]))
    return r2_as - r2_a, r2_a, r2_as


def idm_lemma_check(seed, steps=3000):
    """Numerical check that the jointly trained inverse model recovers the
    raw action up to an invertible reparameterization, independent of state,
    on the linear process of `make_linear_dgp`."""
    spec = make_linear_dgp()
    idm, final_loss = train_linear_idm_fdm(spec, steps=steps, seed=seed)
    x_t, x_n, a, s_t = _collect_transitions(spec, 100, spec.T, seed + 1)
    a_tilde = idm(np.hstack([x_t, x_n]))
    n = len(a)
    tr, te = slice(0, n // 2), slice(n // 2, n)
    # the forward fit a -> a_tilde is the state-free fit of the gap
    gap, r2_fwd, _ = state_dependence_gap(a_tilde, a, s_t)
    inv = fit_linear(a_tilde[tr], a[tr])
    r2_inv = r2_score(a[te], inv(a_tilde[te]))
    # negative control: with the pairing broken, no linear map should explain
    # the recovered action from the raw one
    perm = stream(seed + 2, "lemma-shuffle").permutation(n)
    shuf = fit_linear(a[perm][tr], a_tilde[tr])
    r2_shuffled = r2_score(a_tilde[te], shuf(a[perm][te]))
    report = {
        "final_loss": final_loss,
        "premise_met": final_loss < 1e-3,
        "r2_forward": r2_fwd,
        "r2_inverse": r2_inv,
        "r2_shuffled": r2_shuffled,
        "state_dependence_gap": abs(gap),
    }
    if not report["premise_met"]:
        report["warning"] = "joint training did not reach the near-optimum premise"
    return report


# ---- pushforward law test ----

def pushforward_law_test(z, e_labels, seed):
    """Test that the latent has one law for every embodiment: an energy
    permutation test for each pair of embodiments, on the held-out half of
    each one's rows (its last n // 2), cut to the first min(n1, n2, 300)."""
    z = np.asarray(z, F32)
    e_labels = np.asarray(e_labels)
    holdout = {}
    for e in sorted(set(int(v) for v in e_labels)):
        ze = z[e_labels == e]
        holdout[e] = ze[len(ze) // 2:]
    pvalues = {}
    for e1, e2 in itertools.combinations(holdout, 2):
        m = min(len(holdout[e1]), len(holdout[e2]), 300)
        pvalues[(e1, e2)], _ = energy_permutation_test(
            holdout[e1][:m], holdout[e2][:m], seed=seed)
    return {"energy_pvalues": pvalues, "min_energy_pvalue": min(pvalues.values())}
