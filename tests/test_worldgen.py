import os

import numpy as np
import pytest
from scipy import stats

from latact import worldgen
from latact.rng import stream
from latact.theory import make_linear_dgp
from latact.worldgen import (
    DGPSpec,
    decode_state,
    frame_from_obs,
    gain,
    generate_dataset,
    generate_episode,
    load_dataset,
    obs_nuisance_block,
    realize_action,
    render,
    sample_unified_action,
    save_dataset,
    step_dynamics,
    transfer_spec,
    vmf_sample,
)


@pytest.fixture(scope="module")
def spec():
    return DGPSpec()


def _frame(s, e, spec):
    return frame_from_obs(render(s, e, spec), spec)


class TestUnifiedAction:
    def test_reproducible(self, spec):
        u1 = sample_unified_action(stream(3, "u"), spec, 5)
        u2 = sample_unified_action(stream(3, "u"), spec, 5)
        assert u1.shape == (5, spec.d_u)
        np.testing.assert_array_equal(u1, u2)

    def test_mean_within_clt_bound(self, spec):
        rng = stream(0, "u-mean")
        n = 100_000
        us = rng.uniform(-1, 1, (n, spec.d_u))
        sigma = np.sqrt(1.0 / 3.0) / np.sqrt(n)
        assert np.all(np.abs(us.mean(axis=0)) < 3 * sigma)

    def test_independence_of_embodiment(self, spec):
        # quantize u[0] into 4 bins; e uniform; chi-square independence test
        rng = stream(1, "u-indep")
        n = 20_000
        es = rng.integers(0, spec.n_embodiments, n)
        us = sample_unified_action(rng, spec, n)
        bins = np.digitize(us[:, 0], [-0.5, 0.0, 0.5])
        table = np.zeros((4, spec.n_embodiments))
        for b, e in zip(bins, es):
            table[b, e] += 1
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.01


class TestRealizeAction:
    def test_identity_block_embedding(self):
        spec = DGPSpec()
        spec.Q[0] = np.vstack([np.eye(2), np.zeros((3, 2))]).astype(np.float32)
        spec.b[0] = np.zeros(5, np.float32)
        a = realize_action(np.array([0.3, -0.7]), 0, spec)
        np.testing.assert_allclose(a[:2], [0.3, -0.7], rtol=1e-6)
        np.testing.assert_allclose(a[2:], 0.0)

    def test_injective_on_random_pairs(self, spec):
        rng = stream(2, "ra-pairs")
        for e in spec.embodiments:
            u1 = rng.uniform(-1, 1, (10_000, spec.d_u))
            u2 = rng.uniform(-1, 1, (10_000, spec.d_u))
            keep = np.linalg.norm(u1 - u2, axis=1) > 1e-6
            a1 = u1[keep] @ spec.Q[e].T + spec.b[e]
            a2 = u2[keep] @ spec.Q[e].T + spec.b[e]
            assert np.linalg.norm(a1 - a2, axis=1).min() > 1e-8

    def test_embodiments_differ(self, spec):
        u = np.array([1.0, 0.5], np.float32)
        a0 = realize_action(u, 0, spec)
        a1 = realize_action(u, 1, spec)
        assert np.linalg.norm(a0 - a1) > 1e-6

    def test_unknown_embodiment(self, spec):
        with pytest.raises(ValueError):
            realize_action(np.zeros(2), 99, spec)

    def test_ground_truth_recoverability(self, spec):
        rng = stream(4, "ra-recover")
        for e in spec.embodiments:
            u = rng.uniform(-1, 1, spec.d_u).astype(np.float32)
            a = realize_action(u, e, spec)
            recovered = np.linalg.pinv(spec.Q[e]) @ (a - spec.b[e])
            np.testing.assert_allclose(recovered, u, atol=1e-5)


class TestDynamics:
    def test_zero_action_identity_mixing(self):
        spec = DGPSpec(mixing="identity")
        s = np.array([0.1, -0.2, 0.3, 0.0], np.float32)
        np.testing.assert_allclose(step_dynamics(s, np.zeros(5), spec), s, atol=1e-6)

    def test_distinct_actions_distinct_states(self, spec):
        rng = stream(5, "dyn-pairs")
        s = rng.normal(0, 0.5, spec.d_s).astype(np.float32)
        e = 1
        u1 = rng.uniform(-1, 1, (10_000, spec.d_u))
        u2 = rng.uniform(-1, 1, (10_000, spec.d_u))
        keep = np.linalg.norm(u1 - u2, axis=1) > 1e-6
        a1 = u1[keep] @ spec.Q[e].T + spec.b[e]
        a2 = u2[keep] @ spec.Q[e].T + spec.b[e]
        s1 = a1 @ spec.W_dyn.T * gain(s, spec)
        s2 = a2 @ spec.W_dyn.T * gain(s, spec)
        assert np.linalg.norm(s1 - s2, axis=1).min() > 1e-8

    def test_gain_field_state_dependence(self, spec):
        a = realize_action(np.array([0.5, 0.5]), 0, spec)
        s_low = np.array([-1.5, 0, 0, 0], np.float32)
        s_high = np.array([1.5, 0, 0, 0], np.float32)
        d_low = step_dynamics(s_low, a, spec) - step_dynamics(s_low, np.zeros(5), spec)
        d_high = step_dynamics(s_high, a, spec) - step_dynamics(s_high, np.zeros(5), spec)
        assert np.linalg.norm(d_low - d_high) > 1e-3


class TestRender:
    def test_tanh_on_state_block_with_identity_projection(self):
        spec = DGPSpec(d_s=4, d_x=7, nuisance_dim=3)
        spec.P = np.vstack([np.eye(4)]).astype(np.float32)
        s = np.array([0.2, -0.4, 0.6, 0.0], np.float32)
        x = render(s, 0, spec)
        np.testing.assert_allclose(x[:4], np.tanh(s), rtol=1e-6)

    def test_injective_on_pairs(self, spec):
        rng = stream(6, "render-pairs")
        s1 = rng.normal(0, 0.7, (10_000, spec.d_s))
        s2 = rng.normal(0, 0.7, (10_000, spec.d_s))
        keep = np.linalg.norm(s1 - s2, axis=1) > 1e-6
        x1 = np.tanh(s1[keep] @ spec.P.T)
        x2 = np.tanh(s2[keep] @ spec.P.T)
        assert np.linalg.norm(x1 - x2, axis=1).min() > 1e-8

    def test_frames_differ_only_in_glyph(self, spec):
        s = np.zeros(spec.d_s, np.float32)
        f0 = _frame(s, 0, spec)
        f1 = _frame(s, 1, spec)
        diff = np.argwhere(f0 != f1)
        glyph = {(0, 0), (0, 1), (1, 0)}
        assert set(map(tuple, diff)) <= glyph
        assert len(diff) > 0

    def test_frame_purity_and_range(self, spec):
        s = np.array([0.3, -0.3, 0.1, 0.2], np.float32)
        f1 = _frame(s, 2, spec)
        f2 = _frame(s, 2, spec)
        np.testing.assert_array_equal(f1, f2)
        assert f1.min() >= 0.0 and f1.max() <= 1.0

    def test_out_of_range_state_clamps_and_flags(self, spec):
        x = render(np.array([50.0, 0, 0, 0], np.float32), 0, spec)
        n = spec.frame_size
        # tanh squashing bounds the decoded state, but not to the frame
        pos = (decode_state(x, spec)[:2] + 1.5) / 3.0 * (n - 2)
        assert np.any((pos < 0) | (pos > n - 2))
        blob = np.argwhere(frame_from_obs(x, spec) == 1.0)
        assert len(blob) == 4
        assert np.array_equal(blob.max(axis=0) - blob.min(axis=0), [1, 1])
        assert blob.min() >= 0 and blob.max() <= n - 1


def _reference_frame(x, spec):
    # inline copy of the one-frame rasterizer the stacked one replaced
    n = spec.frame_size
    frame = np.zeros((n, n), np.float32)
    s = decode_state(x, spec)
    pos = []
    for coord in s[:2]:
        p = (coord + 1.5) / 3.0 * (n - 2)
        pos.append(int(round(min(max(p, 0), n - 2))))
    frame[pos[1]:pos[1] + 2, pos[0]:pos[0] + 2] = 1.0
    nuis = obs_nuisance_block(x, spec)
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0)][: spec.nuisance_dim]):
        frame[i, j] = np.clip(0.5 + 0.5 * nuis[k], 0.0, 1.0)
    return frame


class TestStackedFrames:
    def test_stack_matches_per_frame_reference(self, spec):
        eps = [generate_episode(11, e, spec.T, spec, index=i)
               for e in spec.embodiments for i in range(3)]
        # states as generated, scaled x3 (off the frame on some axes), and
        # pinned to the top-left corner, where the blob meets the glyph
        corner = np.zeros_like(eps[0].s)
        corner[:, :2] = -1.5
        states = np.stack([ep.s for ep in eps] + [3 * ep.s for ep in eps] + [corner])
        x = np.stack([render(s, i % spec.n_embodiments, spec, lighting=0.05)
                      for i, s in enumerate(states)])        # (k, T, d_x)
        frames = frame_from_obs(x, spec)
        assert frames.shape == x.shape[:2] + (spec.frame_size, spec.frame_size)
        assert frames.dtype == np.float32
        for i, j in np.ndindex(*x.shape[:2]):
            np.testing.assert_array_equal(frames[i, j], _reference_frame(x[i, j], spec))
        assert frames[-1, :, 0, 0].max() < 1.0      # glyph pixel drawn over the blob
        np.testing.assert_array_equal(frames[-1, :, 1, 1], 1.0)

    def test_nan_observation_refused(self, spec):
        x = render(np.zeros((3, spec.d_s), np.float32), 0, spec)
        x[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            frame_from_obs(x, spec)


def _reference_episode(seed, e, T, spec, index):
    # inline copy of the per-step generator the vectorised one replaced
    rng = stream(seed, f"episode:{e}:{index}")
    lighting = float(rng.uniform(-spec.lighting_scale, spec.lighting_scale))
    s = np.empty((T, spec.d_s), np.float32)
    x = np.empty((T, spec.d_x), np.float32)
    u = np.empty((T - 1, spec.d_u), np.float32)
    a = np.empty((T - 1, spec.d_a), np.float32)
    s[0] = rng.normal(0, 0.5, spec.d_s)
    for t in range(T - 1):
        u[t] = rng.uniform(-1.0, 1.0, spec.d_u).astype(np.float32)
        a_t = spec.Q[e] @ u[t] + spec.b[e]
        a[t] = np.tanh(a_t) if spec.action_squash else a_t
        s[t + 1] = step_dynamics(s[t], a[t], spec)
    k = spec.d_x - spec.nuisance_dim
    for t in range(T):
        proj = spec.P @ s[t]
        x[t, :k] = np.tanh(proj) if spec.squash else proj
        x[t, k:] = spec.nuisance_codes[e] + np.float32(lighting)
    return x, a, u, s, lighting


class TestEpisodes:
    @pytest.mark.parametrize("make_spec", [
        DGPSpec, lambda: transfer_spec(DGPSpec()), make_linear_dgp,
        lambda: DGPSpec(action_squash=True)],
        ids=["default", "transfer", "linear", "action-squash"])
    def test_matches_per_step_reference(self, make_spec):
        spec = make_spec()
        for e in spec.embodiments:
            for index in (0, 1, 10_000):
                ep = generate_episode(5, e, spec.T, spec, index=index)
                x, a, u, s, lighting = _reference_episode(5, e, spec.T, spec, index)
                for got, want in ((ep.x, x), (ep.a, a), (ep.u, u), (ep.s, s)):
                    assert got.dtype == np.float32
                    np.testing.assert_array_equal(got, want)
                assert ep.lighting == lighting

    def test_bit_identical_regeneration(self, spec):
        ep1 = generate_episode(42, 1, 9, spec)
        ep2 = generate_episode(42, 1, 9, spec)
        np.testing.assert_array_equal(ep1.x, ep2.x)
        np.testing.assert_array_equal(ep1.a, ep2.a)
        assert ep1.lighting == ep2.lighting

    def test_renders_no_frames(self, spec, monkeypatch):
        def refuse(*args):
            raise AssertionError("generate_episode rendered a frame")
        monkeypatch.setattr(worldgen, "frame_from_obs", refuse)
        generate_episode(3, 1, 9, spec)

    def test_replay_reproduces_states(self, spec):
        ep = generate_episode(7, 2, 11, spec)
        s = ep.s[0]
        for t in range(10):
            s = step_dynamics(s, ep.a[t], spec)
            np.testing.assert_array_equal(s, ep.s[t + 1])

    def test_dataset_counts(self, spec):
        ds = generate_dataset(0, spec, target_e=0, m_target=10, source_count=30)
        assert len(ds.by_embodiment(0)) == 10
        for e in (1, 2, 3):
            assert len(ds.by_embodiment(e)) == 30
        assert len(ds.episodes) == 10 + 3 * 30

    def test_dataset_roundtrip(self, tmp_path, spec):
        ds = generate_dataset(0, spec, m_target=2, source_count=3)
        path = tmp_path / "data.bin"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert len(back.episodes) == len(ds.episodes)
        for a, b in zip(ds.episodes, back.episodes):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.u, b.u)
            assert a.e == b.e

    def test_truncated_dataset_names_the_file(self, tmp_path):
        ds = generate_dataset(0, DGPSpec(T=3, n_embodiments=2), m_target=1, source_count=1)
        cut = tmp_path / "cut.bin"
        save_dataset(cut, ds)
        for n in reversed(range(cut.stat().st_size)):
            os.truncate(cut, n)
            with pytest.raises(ValueError, match="cut.bin"):
                load_dataset(cut)

    def test_dataset_save_deterministic(self, tmp_path, spec):
        ds = generate_dataset(5, spec, m_target=2, source_count=2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(p1, ds)
        save_dataset(p2, generate_dataset(5, spec, m_target=2, source_count=2))
        assert p1.read_bytes() == p2.read_bytes()


class TestTransferSpec:
    def test_goal_mirrored_everything_else_equal(self, spec):
        t = transfer_spec(spec)
        np.testing.assert_allclose(t.goal, -spec.goal, rtol=1e-6)
        np.testing.assert_array_equal(t.P, spec.P)
        np.testing.assert_array_equal(t.Q[0], spec.Q[0])


class TestVmf:
    def test_unit_norm(self):
        rng = stream(0, "vmf")
        v = np.zeros(4)
        v[0] = 1.0
        out = vmf_sample(v, 5.0, 1000, rng)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_kappa_zero_uniform(self):
        rng = stream(1, "vmf-uniform")
        v = np.zeros(4)
        v[0] = 1.0
        out = vmf_sample(v, 0.0, 100_000, rng).astype(np.float64)
        # mean of uniform sphere points: components ~ N(0, 1/(d*n)) approx
        sigma = 1.0 / np.sqrt(4 * 100_000)
        assert np.all(np.abs(out.mean(axis=0)) < 4 * sigma)

    def test_mean_resultant_matches_bessel_ratio(self):
        from latact.theory import bessel_ratio

        rng = stream(2, "vmf-bessel")
        d, kappa, n = 4, 10.0, 100_000
        v = np.zeros(d)
        v[-1] = 1.0
        out = vmf_sample(v, kappa, n, rng).astype(np.float64)
        r = out.mean(axis=0) @ v
        assert abs(r - bessel_ratio(d, kappa)) < 1e-2

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            vmf_sample(np.array([1.0, 0, 0]), -1.0, 5, stream(0, "x"))

    def test_single_center_keeps_draw_order(self):
        # inline copy of the one-center sampler the stacked one replaced
        def reference(center, kappa, n, rng):
            d = center.shape[0]
            dim = d - 1
            b = dim / (np.sqrt(4.0 * kappa**2 + dim**2) + 2 * kappa)
            x0 = (1.0 - b) / (1.0 + b)
            c = kappa * x0 + dim * np.log(1 - x0**2)
            ws = np.empty(n)
            filled = 0
            while filled < n:
                todo = n - filled
                z = rng.beta(dim / 2.0, dim / 2.0, size=todo)
                w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
                u = rng.uniform(size=todo)
                ok = kappa * w + dim * np.log(1.0 - x0 * w) - c >= np.log(u)
                k = int(ok.sum())
                ws[filled:filled + k] = w[ok]
                filled += k
            v = rng.normal(size=(n, d))
            v -= np.outer(v @ center, center)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            out = ws[:, None] * center[None, :] + np.sqrt(1.0 - ws[:, None] ** 2) * v
            return out.astype(np.float32)

        center = np.array([0.6, 0.0, -0.8, 0.0])
        for kappa, n in ((8.0, 64), (0.5, 1000)):
            got = vmf_sample(center, kappa, n, stream(3, "vmf-order"))
            want = reference(center, kappa, n, stream(3, "vmf-order"))
            np.testing.assert_array_equal(got, want)
            stacked = vmf_sample(center[None], kappa, n, stream(3, "vmf-order"))
            np.testing.assert_array_equal(stacked[0], want)


def _stack_centers(k, d, seed):
    c = stream(seed, "vmf-centers").normal(size=(k, d))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


class TestVmfStacked:
    def test_shape_and_unit_rows(self):
        centers = _stack_centers(3, 5, 0)
        out = vmf_sample(centers, 6.0, 200, stream(0, "vmf-stack"))
        assert out.shape == (3, 200, 5)
        assert out.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_kappa_zero_stack_shape(self):
        out = vmf_sample(_stack_centers(2, 4, 1), 0.0, 10, stream(1, "vmf-stack0"))
        assert out.shape == (2, 10, 4)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), 1.0, atol=1e-6)

    def test_each_center_mean_resultant_matches_bessel_ratio(self):
        from latact.theory import bessel_ratio

        d, kappa, n = 4, 10.0, 100_000
        centers = _stack_centers(3, d, 2)
        out = vmf_sample(centers, kappa, n, stream(2, "vmf-stack-bessel")).astype(np.float64)
        for i, c in enumerate(centers):
            r = out[i].mean(axis=0) @ c
            assert abs(r - bessel_ratio(d, kappa)) < 1e-2, i

    def test_one_non_unit_row_rejected(self):
        centers = _stack_centers(4, 3, 3)
        centers[2] *= 1.01
        with pytest.raises(ValueError, match="unit norm"):
            vmf_sample(centers, 5.0, 8, stream(3, "x"))

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            vmf_sample(np.ones((1, 1, 1)), 5.0, 8, stream(4, "x"))
