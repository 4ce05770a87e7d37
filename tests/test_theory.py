import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import subspace_angles

import latact.theory as th
from latact.cli import VMF_PRESETS
from latact.rng import stream
from latact.theory import (
    bessel_I,
    bessel_log_I,
    bessel_ratio,
    idm_lemma_check,
    make_linear_dgp,
    make_vmf_experiment,
    mgf_closed_form,
    principal_angles,
    pushforward_law_test,
    saddle_train,
    state_dependence_gap,
    train_linear_idm_fdm,
    vmf_experiment_data,
    _collect_transitions,
)
from latact.autodiff import Tensor, grl, softmax_cross_entropy
from latact.fitting import N_PERMUTATIONS, energy_permutation_test, fit_linear, r2_score
from latact.optim import AdamW
from latact.worldgen import vmf_sample


class TestBessel:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
    @pytest.mark.parametrize("r", [0.1, 1.0, 5.0, 29.0, 31.0, 50.0, 200.0])
    def test_against_mpmath(self, nu, r):
        expected = float(mpmath.log(mpmath.besseli(nu, r)))
        assert abs(bessel_log_I(nu, r) - expected) < 1e-10 * max(1, abs(expected))

    def test_r_zero(self):
        assert bessel_I(0.0, 0.0) == 1.0
        assert bessel_I(2.0, 0.0) == 0.0

    def test_recurrence_residual(self):
        # I_{nu-1}(r) - I_{nu+1}(r) = (2 nu / r) I_nu(r), relative residual
        for nu in (1.0, 1.5, 2.5):
            for r in np.linspace(0.1, 50.0, 40):
                lhs = bessel_I(nu - 1, r) - bessel_I(nu + 1, r)
                rhs = 2 * nu / r * bessel_I(nu, r)
                assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-8

    def test_no_overflow_large_r(self):
        val = bessel_log_I(2.0, 700.0)
        assert np.isfinite(val)
        expected = float(mpmath.log(mpmath.besseli(2.0, 700.0)))
        assert abs(val - expected) < 1e-8 * abs(expected)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bessel_log_I(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_log_I(1.0, -0.5)

    def test_ratio_monotone_in_kappa(self):
        rs = [bessel_ratio(5, k) for k in (0.0, 1.0, 4.0, 16.0, 64.0)]
        assert rs[0] == 0.0
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert rs[-1] < 1.0


class TestMgf:
    def test_zero_direction_gives_one(self):
        v = np.zeros(5)
        v[0] = 1.0
        M = np.eye(3, 5)
        assert mgf_closed_form(np.zeros(3), M, v, 8.0, 5) == 1.0

    def test_against_monte_carlo(self):
        rng = stream(0, "mgf-mc")
        d_a, d_z, kappa = 5, 3, 8.0
        v = np.zeros(d_a)
        v[1] = 1.0
        samples = vmf_sample(v, kappa, 200_000, rng).astype(np.float64)
        probe_rng = stream(1, "mgf-probes")
        for _ in range(10):
            M = probe_rng.normal(0, 0.4, (d_z, d_a))
            u = probe_rng.normal(0, 0.5, d_z)
            vals = np.exp(samples @ (M.T @ u))
            mc = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            closed = mgf_closed_form(u, M, v, kappa, d_a)
            assert abs(closed - mc) < 3 * se + 1e-12

    def test_invariant_direction_matches_kappa_only_formula(self):
        # If M v_e = 0 and M^T u lies nowhere special, the argument is
        # sqrt(||M^T u||^2 + kappa^2): check reduction explicitly.
        d_a, kappa = 5, 6.0
        v = np.zeros(d_a)
        v[0] = 1.0
        M = np.zeros((2, d_a))
        M[0, 1] = 1.0
        M[1, 2] = 1.0
        u = np.array([0.3, -0.4])
        from latact.theory import log_sphere_psi
        r = math.sqrt(0.25 + kappa**2)
        expected = math.exp(log_sphere_psi(d_a, r) - log_sphere_psi(d_a, kappa))
        assert abs(mgf_closed_form(u, M, v, kappa, d_a) - expected) < 1e-12


class TestPrincipalAngles:
    def test_identical_subspace(self):
        rng = stream(2, "pa")
        b = rng.normal(size=(6, 3))
        # arccos amplifies rounding near cos = 1, so the bound is loose
        assert principal_angles(b, b @ rng.normal(size=(3, 3))).max() < 1e-6

    def test_orthogonal_subspaces(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        np.testing.assert_allclose(principal_angles(a, b), np.pi / 2, atol=1e-10)

    def test_against_scipy(self):
        rng = stream(3, "pa-scipy")
        for _ in range(20):
            a = rng.normal(size=(7, 3))
            b = rng.normal(size=(7, 2))
            mine = np.sort(principal_angles(a, b))[::-1]
            ref = np.sort(subspace_angles(a, b))[::-1]
            np.testing.assert_allclose(mine[: len(ref)], ref, atol=1e-8)

    def test_rank_deficient_rejected(self):
        b = np.ones((5, 2))
        with pytest.raises(ValueError):
            principal_angles(b, np.eye(5)[:, :2])


class TestVmfExperiment:
    def test_centers_unit_and_difference_span(self):
        exp = make_vmf_experiment(seed=1)
        np.testing.assert_allclose(np.linalg.norm(exp.centers, axis=1), 1.0, atol=1e-10)
        diffs = np.array([exp.centers[i] - exp.centers[j]
                          for i in range(4) for j in range(i + 1, 4)])
        # differences live in V and span all of V
        resid = diffs - diffs @ exp.V @ exp.V.T
        assert np.abs(resid).max() < 1e-10
        assert np.linalg.matrix_rank(diffs, tol=1e-8) == exp.d_a - exp.d_z

    @pytest.mark.parametrize("preset", sorted(VMF_PRESETS))
    def test_cluster_points_unit_separated_and_spanning(self, preset):
        p = VMF_PRESETS[preset]
        n, d = p["n_embodiments"], p["d_a"] - p["d_z"]
        pts = th._simplex_points(n, d)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        assert dist[np.triu_indices(n, 1)].min() >= 1.0
        assert np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-8) == d

    def test_data_shapes_and_balance(self):
        exp = make_vmf_experiment(seed=0)
        x, e = vmf_experiment_data(exp, 50, seed=0)
        assert x.shape == (200, 6)
        assert all((e == k).sum() == 50 for k in range(4))

    def test_data_labels_follow_their_cluster(self):
        exp = make_vmf_experiment(seed=5)
        x, e = vmf_experiment_data(exp, 400, seed=5)
        assert x.shape == (1600, 6) and x.dtype == np.float32
        means = np.array([x[e == k].mean(axis=0) for k in range(4)])
        np.testing.assert_array_equal((means @ exp.centers.T).argmax(axis=1), np.arange(4))

    def test_oracle_encoder_is_a_saddle_point(self):
        # With rows of M spanning V_perp, z carries no class signal, so the
        # best achievable classifier CE is ln|E| (checked by training only
        # the classifier on frozen oracle features).
        exp = make_vmf_experiment(seed=3)
        exp.M = exp.V_perp.T.astype(np.float32)    # orthonormal rows spanning V_perp
        x, e = vmf_experiment_data(exp, 500, seed=3)
        z = x @ exp.M.T
        from latact.fitting import fit_logistic_probe
        _, ce = fit_logistic_probe(z, e, 4, steps=800, seed=0)
        assert abs(ce - math.log(4)) < 0.03

    def test_raw_actions_are_linearly_separable(self):
        # sanity: before any adversarial projection, embodiment is easy to
        # classify from the raw action, so the saddle result is not vacuous
        exp = make_vmf_experiment(seed=4)
        x, e = vmf_experiment_data(exp, 300, seed=4)
        from latact.fitting import fit_logistic_probe
        probe, ce = fit_logistic_probe(x, e, 4, steps=800, seed=0)
        acc = (probe(x).argmax(1) == e).mean()
        assert acc > 0.9
        assert ce < 0.3


def _taped_saddle(exp, steps, seed, n_test):
    """The per-game taped loop that saddle_train replaced: the reference its
    stacked closed-form loop must reproduce bit for bit."""
    x_test, e_test = vmf_experiment_data(exp, n_test // exp.n_embodiments, seed, "saddle-test")
    Mt = Tensor(exp.M.T.copy(), requires_grad=True)
    W = Tensor(exp.W.copy(), requires_grad=True)
    b = Tensor(exp.b.copy(), requires_grad=True)
    opt_enc = AdamW({"Mt": Mt}, lr=2e-3)
    opt_cls = AdamW({"W": W, "b": b}, lr=2e-2)
    rng = stream(seed, "saddle-batches")
    per_class = th.SADDLE_BATCH // exp.n_embodiments
    eb = np.repeat(np.arange(exp.n_embodiments), per_class)
    for step in range(steps):
        decay = 1.0 - 0.9 * step / steps
        opt_enc.lr = 2e-3 * decay
        opt_cls.lr = 2e-2 * decay
        j = step % th.SADDLE_CHUNK
        if j == 0:
            n_chunk = min(th.SADDLE_CHUNK, steps - step)
            chunk = vmf_sample(exp.centers, exp.kappa, per_class * n_chunk, rng)
        xb = chunk[:, j * per_class:(j + 1) * per_class].reshape(-1, exp.d_a)
        opt_enc.zero_grad()
        opt_cls.zero_grad()
        logits = grl(Tensor(xb) @ Mt, 1.0) @ W + b
        softmax_cross_entropy(logits, eb).backward()
        M = Mt.data.T.astype(np.float64)
        G = M @ M.T + 1e-6 * np.eye(exp.d_z)
        Mt.grad = Mt.grad + (-1e-3 * 2.0 * (np.linalg.inv(G) @ M)).T.astype(np.float32)
        opt_enc.step()
        opt_cls.step()
    M = Mt.data.T.astype(np.float64)
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.min() < 1e-6:
        return {"ok": False, "reason": "rank collapse"}
    logits_test = x_test @ M.T @ W.data.astype(np.float64) + b.data
    ce_test = float(softmax_cross_entropy(Tensor(logits_test.astype(np.float32)), e_test).data)
    diffs = [exp.centers[i] - exp.centers[j]
             for i in range(exp.n_embodiments) for j in range(i + 1, exp.n_embodiments)]
    return {
        "ok": True,
        "held_out_ce": ce_test,
        "ln_num_embodiments": math.log(exp.n_embodiments),
        "invariance_stat": float(max(np.linalg.norm(M @ d) for d in diffs) / svals.max()),
        "max_principal_angle": float(principal_angles(M.T, exp.V_perp).max()),
    }


class TestSaddleStack:
    @pytest.mark.parametrize("preset", ["vmf-small", "vmf-default"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_reports_match_taped_per_game_loop(self, preset, k):
        # 300 steps cross one chunk boundary
        seeds = [5 + i for i in range(k)]
        exps = [make_vmf_experiment(seed=s, **VMF_PRESETS[preset]) for s in seeds]
        got = saddle_train(exps, seeds, steps=300, n_test=400)
        assert got == [_taped_saddle(exp, 300, s, 400) for exp, s in zip(exps, seeds)]

    @pytest.mark.parametrize("n_e", [4, 5])
    def test_closed_form_gradients_equal_the_tape_through_grl(self, n_e):
        rng = stream(0, "saddle-grads")
        k, d_a, d_z = 2, 6, 3
        xb = rng.normal(size=(k, 256, d_a)).astype(np.float32)
        Mt = rng.normal(0, 0.3, (k, d_a, d_z)).astype(np.float32)
        W = rng.normal(0, 0.1, (k, d_z, n_e)).astype(np.float32)
        b = rng.normal(0, 0.1, (k, 1, n_e)).astype(np.float32)
        eb = np.repeat(np.arange(n_e), th.SADDLE_BATCH // n_e)
        xb = xb[:, :len(eb)]
        g_Mt, g_W, g_b = th._saddle_grads(xb, Mt, W, b, np.eye(n_e, dtype=np.float32)[eb])
        for i in range(k):
            t_Mt = Tensor(Mt[i], requires_grad=True)
            t_W = Tensor(W[i], requires_grad=True)
            t_b = Tensor(b[i, 0], requires_grad=True)
            softmax_cross_entropy(grl(Tensor(xb[i]) @ t_Mt, 1.0) @ t_W + t_b, eb).backward()
            np.testing.assert_array_equal(g_Mt[i], t_Mt.grad)
            np.testing.assert_array_equal(g_W[i], t_W.grad)
            np.testing.assert_array_equal(g_b[i, 0], t_b.grad)
        # the reversal: the encoder descends the negated classifier gradient
        t_Mt = Tensor(Mt[0], requires_grad=True)
        softmax_cross_entropy(Tensor(xb[0]) @ t_Mt @ Tensor(W[0]) + Tensor(b[0, 0]), eb).backward()
        np.testing.assert_array_equal(g_Mt[0], -t_Mt.grad)

    @pytest.mark.parametrize("field, other", [
        ("d_a", dict(d_a=5, d_z=3)),
        ("d_z", dict(d_a=6, d_z=4)),
        ("n_embodiments", dict(n_embodiments=5)),
    ])
    def test_mismatched_stack_is_refused(self, field, other):
        exps = [make_vmf_experiment(seed=0), make_vmf_experiment(seed=1, **other)]
        with pytest.raises(ValueError, match=field):
            saddle_train(exps, [0, 1], steps=1)

    def test_needs_one_seed_per_experiment(self):
        with pytest.raises(ValueError, match="one seed per experiment"):
            saddle_train([make_vmf_experiment(seed=0)], [0, 1], steps=1)
        with pytest.raises(ValueError, match="one seed per experiment"):
            saddle_train([], [], steps=1)


class TestSaddleChunks:
    def test_partial_last_chunk_and_rerun_identical(self, monkeypatch):
        calls = []

        def recording(center, kappa, n, rng):
            out = vmf_sample(center, kappa, n, rng)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(th, "vmf_sample", recording)
        steps = 300
        assert steps % th.SADDLE_CHUNK != 0
        reports = [saddle_train([make_vmf_experiment(d_a=4, d_z=2, seed=1)], [1], steps=steps,
                                n_test=400) for _ in range(2)]
        assert reports[0] == reports[1]
        assert reports[0][0]["ok"]
        # per run: the held-out set, one full chunk, then the 50-step remainder
        per_class = th.SADDLE_BATCH // 4
        rest = steps - th.SADDLE_CHUNK
        assert calls[:3] == [(4, 100, 4), (4, th.SADDLE_CHUNK * per_class, 4),
                             (4, rest * per_class, 4)]
        assert calls[3:] == calls[:3]

    def test_step_batches_are_embodiment_major(self, monkeypatch):
        # each game's step batch holds 64 rows of its cluster 0, then 64 of
        # cluster 1, ...; the labels follow the same order
        batches, labels = [], []
        real_grads = th._saddle_grads

        def grads(xb, Mt, W, b, onehot):
            batches.append(xb.copy())
            labels.append(onehot.argmax(axis=1))
            return real_grads(xb, Mt, W, b, onehot)

        monkeypatch.setattr(th, "_saddle_grads", grads)
        exps = [make_vmf_experiment(seed=2), make_vmf_experiment(seed=3)]
        saddle_train(exps, [2, 3], steps=3, n_test=400)
        assert len(batches) == 3
        for xb, eb in zip(batches, labels):
            np.testing.assert_array_equal(eb, np.repeat(np.arange(4), 64))
            assert xb.shape == (2, 256, 6)
            for game, exp in zip(xb, exps):
                means = game.reshape(4, 64, 6).mean(axis=1)
                np.testing.assert_array_equal((means @ exp.centers.T).argmax(axis=1),
                                              np.arange(4))
        assert not np.array_equal(batches[0], batches[1])
        assert not np.array_equal(batches[0][0], batches[0][1])


@pytest.mark.slow
class TestSaddleTrain:
    def test_reaches_invariant_subspace(self):
        exp = make_vmf_experiment(d_a=6, d_z=3, n_embodiments=4, kappa=8.0, seed=0)
        [report] = saddle_train([exp], [0], steps=4000)
        assert report["ok"], report
        assert abs(report["held_out_ce"] - math.log(4)) < 0.05
        assert report["invariance_stat"] < 0.05
        assert report["max_principal_angle"] < 0.1


class TestLinearLemma:
    def test_linear_dgp_is_actually_linear(self):
        spec = make_linear_dgp()
        x_t, x_n, a, s_t = _collect_transitions(spec, 50, spec.T, 0)
        # next obs must be an exact linear function of (x_t, a)
        fit = fit_linear(np.hstack([x_t, a]), x_n)
        assert r2_score(x_n, fit(np.hstack([x_t, a]))) > 1 - 1e-9

    def test_recovered_action_bijective_and_state_free(self):
        report = idm_lemma_check(seed=0, steps=3000)
        assert report["premise_met"], report
        assert report["r2_forward"] > 0.99
        assert report["r2_inverse"] > 0.99
        assert report["state_dependence_gap"] < 0.01

    def test_equals_its_own_loop_bit_for_bit(self):
        # train_linear_idm_fdm as it was before it ran through training.fit
        spec = make_linear_dgp()
        x_t, x_n, a, s_t = _collect_transitions(spec, 200, spec.T, 4)
        s_n = s_t + a @ spec.W_dyn.T.astype(np.float32)
        rng = stream(4, "lemma-train")
        B = Tensor(rng.normal(0, 0.1, (2 * spec.d_x, spec.d_a)).astype(np.float32),
                   requires_grad=True)
        b_i = Tensor(np.zeros(spec.d_a, np.float32), requires_grad=True)
        D = Tensor(rng.normal(0, 0.1, (spec.d_a, spec.d_s)).astype(np.float32),
                   requires_grad=True)
        opt = AdamW({"B": B, "b_i": b_i, "D": D}, lr=1e-2, wd=1e-4)
        pairs = np.hstack([x_t, x_n])
        for _ in range(50):
            idx = rng.integers(0, len(pairs), 256)
            opt.zero_grad()
            pred = Tensor(s_t[idx]) + (Tensor(pairs[idx]) @ B + b_i) @ D
            ((pred - Tensor(s_n[idx])) ** 2).mean().backward()
            opt.step()
        a_tilde = Tensor(pairs) @ B + b_i
        loss = float((((Tensor(s_t) + a_tilde @ D) - Tensor(s_n)) ** 2).mean().data)

        idm, final_loss = train_linear_idm_fdm(spec, steps=50, seed=4)
        np.testing.assert_array_equal(idm(pairs), a_tilde.data)
        assert final_loss == loss

    def test_shuffled_control_fails(self):
        spec = make_linear_dgp()
        idm, _ = train_linear_idm_fdm(spec, steps=2000, seed=0)
        x_t, x_n, a, _ = _collect_transitions(spec, 50, spec.T, 1)
        a_tilde = idm(np.hstack([x_t, x_n]))
        rng = stream(9, "shuffle")
        a_shuf = a[rng.permutation(len(a))]
        n = len(a)
        fit = fit_linear(a_shuf[: n // 2], a_tilde[: n // 2])
        assert r2_score(a_tilde[n // 2:], fit(a_shuf[n // 2:])) < 0.1

    def test_state_dependence_gap_detects_planted_dependence(self):
        # positive control: a recovery that mixes in the state must show gap
        spec = make_linear_dgp()
        x_t, x_n, a, s_t = _collect_transitions(spec, 80, spec.T, 2)
        a_fake = a + 0.8 * s_t
        gap, r2_a, r2_as = state_dependence_gap(a_fake, a, s_t)
        assert gap > 0.05
        assert r2_as > r2_a


def _energy_distance(x, y):
    # each split's own pairwise norms, as the permutation test computed them
    # before it shared one pooled distance matrix
    def mean_dist(a, b):
        return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1).mean()

    return 2 * mean_dist(x, y) - mean_dist(x, x) - mean_dist(y, y)


def _reference_permutation_test(x, y, seed):
    rng = stream(seed, "energy-perm")
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    obs = _energy_distance(x, y)
    pooled = np.vstack([x, y])
    n = len(x)
    hits = 0
    for _ in range(N_PERMUTATIONS):
        perm = rng.permutation(len(pooled))
        if _energy_distance(pooled[perm[:n]], pooled[perm[n:]]) >= obs:
            hits += 1
    return (hits + 1) / (N_PERMUTATIONS + 1), obs


class TestPushforward:
    def test_shared_law_passes_distinct_fails(self):
        rng = stream(11, "push")
        n, d_u, d_z = 1200, 2, 3
        u = rng.uniform(-1, 1, (n, d_u)).astype(np.float32)
        e = rng.integers(0, 2, n)
        W = rng.normal(size=(d_u, d_z)).astype(np.float32)
        # same map for both embodiments -> shared pushforward
        z_shared = np.tanh(u @ W)
        rep = pushforward_law_test(z_shared, e, seed=0)
        assert rep["min_energy_pvalue"] > 0.05
        # plant an embodiment-dependent shift -> laws differ
        z_leaky = z_shared + 0.8 * e[:, None]
        rep2 = pushforward_law_test(z_leaky, e, seed=0)
        assert rep2["min_energy_pvalue"] < 0.05

    def test_pvalues_and_statistics_match_per_split_distances(self):
        # unequal embodiments: every one is halved, and the two largest
        # held-out halves (330 and 350 rows) are cut to 300
        rng = stream(12, "push-bits")
        sizes = [90, 150, 660, 701]
        e = rng.permutation(np.repeat(np.arange(4), sizes))
        z = rng.normal(size=(len(e), 3)).astype(np.float32)
        z[e == 3] += 0.15
        rep = pushforward_law_test(z, e, seed=4)
        halves = {k: z[e == k][n // 2:] for k, n in enumerate(sizes)}
        assert sorted(rep["energy_pvalues"]) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for (i, j), p in rep["energy_pvalues"].items():
            m = min(len(halves[i]), len(halves[j]), 300)
            x, y = halves[i][:m], halves[j][:m]
            p_ref, stat_ref = _reference_permutation_test(x, y, seed=4)
            p_new, stat_new = energy_permutation_test(x, y, seed=4)
            assert p == p_new == p_ref, (i, j)
            assert stat_new.tobytes() == stat_ref.tobytes(), (i, j)
        assert rep["min_energy_pvalue"] == min(rep["energy_pvalues"].values())
