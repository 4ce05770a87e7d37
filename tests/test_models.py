import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from latact import models
from latact.autodiff import Tensor, concat, gradcheck, layer_norm
from latact.models import (
    ModelConfig,
    a2l_predict,
    build_model,
    cond_sequence,
    diffusion_forcing_schedule,
    disc_classify,
    fdm_flow_predict,
    idm_infer,
    linear_schedule,
    make_flow_target,
    pad_actions,
    rollout_generate,
)
from latact.rng import stream
from latact.serialize import checksum, load_checkpoint, save_checkpoint

F32 = np.float32


@pytest.fixture(scope="module")
def cfg():
    return ModelConfig()


@pytest.fixture(scope="module")
def model(cfg):
    return build_model(cfg, stream(0, "test-models"), with_a2l=True, with_gtcond=True)


def _tokens(cfg, seed=1, T=17):
    return stream(seed, "tokens").normal(0, 1, (T, cfg.d_v)).astype(F32)


class TestFlowBatch:
    def test_endpoints_and_midpoint_exact(self):
        rng = stream(2, "flow")
        v = rng.normal(0, 1, (6, 4)).astype(F32)
        eps = rng.normal(0, 1, (6, 4)).astype(F32)
        for tau, expect in ((0.0, v), (1.0, eps), (0.5, (v + eps) / 2)):
            fb = make_flow_target(v, eps, np.full(6, tau, F32))
            np.testing.assert_array_equal(fb.v_tilde, expect.astype(F32))
            np.testing.assert_array_equal(fb.u_tau, eps - v)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_invariant_any_tau(self, tau):
        rng = stream(3, "flow-prop")
        v = rng.normal(0, 1, (3, 2)).astype(F32)
        eps = rng.normal(0, 1, (3, 2)).astype(F32)
        fb = make_flow_target(v, eps, np.full(3, tau, F32))
        sigma = F32(linear_schedule(F32(tau)))
        np.testing.assert_array_equal(fb.v_tilde, (1 - sigma) * v + sigma * eps)
        np.testing.assert_array_equal(fb.u_tau, eps - v)

    def test_bad_inputs(self):
        v = np.zeros((4, 3), F32)
        with pytest.raises(ValueError):
            make_flow_target(v, np.zeros((4, 2), F32), np.zeros(4))
        with pytest.raises(ValueError):
            make_flow_target(v, v, np.zeros(3))
        with pytest.raises(ValueError):
            make_flow_target(v, v, np.full(4, 1.5))


class TestDiffusionForcing:
    def test_p_clean_one(self):
        rng = stream(4, "df")
        for _ in range(20):
            tau = diffusion_forcing_schedule(17, 5, 1.0, rng)
            np.testing.assert_array_equal(tau[:5], 0.0)

    def test_p_clean_zero_history_uniform(self):
        rng = stream(5, "df-unif")
        draws = np.concatenate(
            [diffusion_forcing_schedule(17, 5, 0.0, rng)[:5] for _ in range(2000)])
        assert stats.kstest(draws, "uniform").pvalue > 0.01

    def test_future_block_unaffected_by_p_clean(self):
        futures = {}
        for p in (0.0, 1.0):
            rng = stream(6, "df-future")
            futures[p] = np.concatenate(
                [diffusion_forcing_schedule(17, 5, p, rng)[5:] for _ in range(1000)])
        assert stats.ks_2samp(futures[0.0], futures[1.0]).pvalue > 0.01
        assert stats.kstest(futures[1.0], "uniform").pvalue > 0.01

    def test_bounds(self):
        with pytest.raises(ValueError):
            diffusion_forcing_schedule(5, 6, 0.5, stream(0, "x"))


class TestIdm:
    def test_output_shape(self, cfg, model):
        post = idm_infer(_tokens(cfg), model.idm)
        assert post.mu.shape == (16, cfg.d_z)
        assert post.log_sigma.shape == (16, cfg.d_z)

    def test_too_short(self, model):
        with pytest.raises(ValueError):
            idm_infer(np.zeros((1, 12), F32), model.idm)

    def test_nondegenerate_head(self, cfg, model):
        p1 = idm_infer(_tokens(cfg, seed=1), model.idm)
        p2 = idm_infer(_tokens(cfg, seed=2), model.idm)
        assert np.abs(p1.mu.data - p2.mu.data).max() > 1e-4

    def test_sample_reparameterized(self, cfg, model):
        post = idm_infer(_tokens(cfg), model.idm)
        z1 = post.sample(stream(7, "z"))
        z2 = post.sample(stream(7, "z"))
        np.testing.assert_array_equal(z1.data, z2.data)
        assert z1.shape == post.mu.shape


class TestConditioning:
    def test_cond_sequence_length(self, cfg, model):
        z = Tensor(np.zeros((16, cfg.d_z), F32))
        assert cond_sequence(z, model.idm).shape == (17, cfg.d_c)

    def test_first_token_independent_of_actions(self, cfg, model):
        rng = stream(8, "cond")
        z1 = rng.normal(0, 1, (16, cfg.d_z)).astype(F32)
        z2 = rng.normal(0, 1, (16, cfg.d_z)).astype(F32)
        c1 = cond_sequence(Tensor(z1), model.idm).data
        c2 = cond_sequence(Tensor(z2), model.idm).data
        # token 1 sees only the prepended zero token
        np.testing.assert_array_equal(c1[0], c2[0])
        assert np.abs(c1[1:] - c2[1:]).max() > 1e-5

    def test_token_f_sees_only_past_actions(self, cfg, model):
        rng = stream(9, "cond-causal")
        z = rng.normal(0, 1, (16, cfg.d_z)).astype(F32)
        f = 7
        z_mut = z.copy()
        z_mut[f:] += 1.0     # mutate actions z_{f+1:} (0-indexed row f is z_{f+1})
        c1 = cond_sequence(Tensor(z), model.idm).data
        c2 = cond_sequence(Tensor(z_mut), model.idm).data
        np.testing.assert_array_equal(c1[: f + 1], c2[: f + 1])

    def test_action_cond_matches_shape(self, cfg, model):
        a = np.zeros((16, cfg.d_a_max), F32)
        assert cond_sequence(a, model.gtcond).shape == (17, cfg.d_c)


class TestFdm:
    def test_output_shape_and_alignment_error(self, cfg, model):
        v = _tokens(cfg)
        tau = np.full(17, 0.3, F32)
        c = np.zeros((17, cfg.d_c), F32)
        ctx = np.zeros(cfg.d_v, F32)
        assert fdm_flow_predict(v, tau, c, model.fdm, v_ctx=ctx).shape == (17, cfg.d_v)
        with pytest.raises(ValueError):
            fdm_flow_predict(v, tau, np.zeros((16, cfg.d_c), F32), model.fdm, v_ctx=ctx)

    def test_zero_conditioning_reduces_to_unconditioned(self, cfg):
        # weight surgery: zero modulation bias => AdaLN(h, 0) = LN(h), so the
        # prediction must equal a manual forward pass with plain layer norm
        model = build_model(cfg, stream(10, "surgery"))
        fdm = model.fdm
        for mod in fdm.mods:
            mod.b.data[...] = 0.0
        v = _tokens(cfg)
        tau = np.full(17, 0.4, F32)
        c0 = np.zeros((17, cfg.d_c), F32)
        got = fdm_flow_predict(v, tau, c0, fdm, v_ctx=np.zeros(cfg.d_v, F32)).data

        from latact.nn import time_embed
        temb = time_embed(tau, cfg.time_width)
        prev = np.vstack([np.zeros((1, cfg.d_v), F32), v[:-1]])
        ctx = np.zeros((17, cfg.d_v), F32)
        h = Tensor(np.hstack([v, prev, ctx, temb]).astype(F32))
        for (w, b), mod in zip(fdm.layers, fdm.mods):
            pre = h @ w + b
            ones = Tensor(np.ones(pre.shape[-1], F32))
            zeros = Tensor(np.zeros(pre.shape[-1], F32))
            h = layer_norm(pre, ones, zeros).gelu()
        expect = (h @ fdm.w_out + fdm.b_out).data
        np.testing.assert_allclose(got, expect, atol=1e-6)

    def test_gradcheck_full_fdm(self, cfg):
        small = ModelConfig(d_v=4, d_z=3, d_c=4, fdm_hidden=(8, 8), time_width=4)
        model = build_model(small, stream(11, "fdm-gc"))
        rng = stream(12, "fdm-gc-data")
        v = Tensor(rng.normal(0, 1, (5, 4)).astype(F32))
        tau = np.full(5, 0.6, F32)
        c = Tensor(rng.normal(0, 1, (5, 4)).astype(F32))
        ctx = np.zeros(4, F32)
        err = gradcheck(
            lambda t: (fdm_flow_predict(t, tau, c, model.fdm, v_ctx=ctx) ** 2).sum(),
            v, eps=1e-4)
        assert err < 1e-4
        err_c = gradcheck(
            lambda t: (fdm_flow_predict(v, tau, t, model.fdm, v_ctx=ctx) ** 2).sum(),
            c, eps=1e-4)
        assert err_c < 1e-4


def _unfused_fdm(v, tau, c, fdm, ctx):
    """The FDM as a graph of plain ops on (B, F, d): AdaLN as slices of the
    modulation, an identity-affine layer norm, a product and a sum."""
    from latact.nn import time_embed
    zero = Tensor(np.zeros((v.shape[0], 1, v.shape[-1]), F32))
    ctx_tokens = Tensor(np.broadcast_to(ctx[:, None, :], v.shape))
    h = concat([v, concat([zero, v[:, :-1, :]], axis=-2), ctx_tokens,
                Tensor(time_embed(tau, fdm.cfg.time_width))], axis=-1)
    for (w, b), mod in zip(fdm.layers, fdm.mods):
        d = mod.hidden_width
        bg = c @ mod.w + mod.b
        ln = layer_norm(h @ w + b, Tensor(np.ones(d, F32)), Tensor(np.zeros(d, F32)))
        h = ((bg[..., d:] + 1.0) * ln + bg[..., :d]).gelu()
    return h @ fdm.w_out + fdm.b_out


def test_fdm_graph_bits_match_the_unfused_graph(cfg):
    # one fused AdaLN node per block on a (rows, features) matrix gives the
    # output and the gradients of the plain 3-D graph at the training shape,
    # bit for bit; the three blocks' gradients reach the conditioning in the
    # same order. The tokens are data, as in training: the flattened input
    # gradient of the first block's matmul has other last bits.
    rng = stream(50, "fdm-bits")
    B, F = 16, 17
    v = Tensor(rng.normal(size=(B, F, cfg.d_v)).astype(F32))
    c0 = rng.normal(size=(B, F, cfg.d_c)).astype(F32)
    tau = rng.uniform(0, 1, (B, F)).astype(F32)
    ctx = rng.normal(size=(B, cfg.d_v)).astype(F32)
    g = rng.normal(size=(B, F, cfg.d_v)).astype(F32)
    grads = []
    for predict in (fdm_flow_predict, _unfused_fdm):
        fdm = build_model(cfg, stream(51, "fdm-bits")).fdm
        c = Tensor(c0, requires_grad=True)
        out = predict(v, tau, c, fdm, ctx)
        out.backward(g)
        grads.append([out.data, c.grad, *(p.grad for p in fdm.params().values())])
    for got, want in zip(*grads):
        assert got.tobytes() == want.tobytes()


class TestRollout:
    def test_context_clamped_bit_identical(self, cfg, model):
        v = _tokens(cfg)
        c = np.zeros((17, cfg.d_c), F32)
        out = rollout_generate(v[:5], c, model.fdm, stream(13, "roll"))
        np.testing.assert_array_equal(out[:5], v[:5])
        assert out.shape == (17, cfg.d_v)

    def test_deterministic_given_stream(self, cfg, model):
        v = _tokens(cfg)
        c = np.zeros((17, cfg.d_c), F32)
        o1 = rollout_generate(v[:5], c, model.fdm, stream(14, "roll"))
        o2 = rollout_generate(v[:5], c, model.fdm, stream(14, "roll"))
        np.testing.assert_array_equal(o1, o2)

    def test_bad_args(self, cfg, model):
        v = _tokens(cfg)
        c = np.zeros((17, cfg.d_c), F32)
        with pytest.raises(ValueError):
            rollout_generate(v, c, model.fdm, stream(0, "r"))
        with pytest.raises(ValueError, match="one Generator per leading row"):
            rollout_generate(np.stack([v[:5]] * 3), c, model.fdm, [stream(0, "r")] * 2)

    @pytest.mark.parametrize("B", [1, 7])
    def test_stack_matches_per_row_rollouts(self, cfg, model, B, monkeypatch):
        monkeypatch.setattr(models, "ROLLOUT_BLOCK_ROWS", 3)   # seven rows span three blocks
        v = np.stack([_tokens(cfg, seed=30 + i) for i in range(B)])
        c = cond_sequence(stream(31, "roll-c").normal(size=(B, 16, cfg.d_z)), model.idm)
        got = rollout_generate(v[:, :5], c, model.fdm,
                               [stream(i, "roll-stack") for i in range(B)])
        assert got.shape == (B, 17, cfg.d_v) and got.dtype == F32
        for i in range(B):
            want = rollout_generate(v[i, :5], Tensor(c.data[i]), model.fdm,
                                    stream(i, "roll-stack"))
            np.testing.assert_array_equal(got[i], want)

    def test_modulation_computed_once_matches_per_step(self, cfg, monkeypatch):
        # 70 rows span two 64-row Euler blocks; the reference recomputes each
        # block's AdaLN modulation inside every fdm_flow_predict call
        model = build_model(cfg, stream(42, "test-models"))
        rng = stream(43, "mod-b")
        for mod in model.fdm.mods:      # nonzero biases, so a dropped one shows
            mod.b.data[...] = rng.normal(0, 0.1, mod.b.shape)
        B = 70
        v = np.stack([_tokens(cfg, seed=40 + i) for i in range(B)])
        c = cond_sequence(stream(41, "roll-c").normal(size=(B, 16, cfg.d_z)), model.idm)
        assert models.ROLLOUT_BLOCK_ROWS < B <= 2 * models.ROLLOUT_BLOCK_ROWS
        got = rollout_generate(v[:, :5], c, model.fdm, [stream(i, "roll-mod") for i in range(B)])
        monkeypatch.setattr(models, "fdm_flow_predict",
                            lambda *args, bgs, **kwargs: fdm_flow_predict(*args, **kwargs))
        want = rollout_generate(v[:, :5], c, model.fdm, [stream(i, "roll-mod") for i in range(B)])
        np.testing.assert_array_equal(got, want)

    def test_builds_no_tape(self, cfg, model, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            out = fdm_flow_predict(*args, **kwargs)
            seen.append(out)
            return out
        monkeypatch.setattr(models, "fdm_flow_predict", spy)
        v = _tokens(cfg)
        rollout_generate(v[:5], np.zeros((17, cfg.d_c), F32), model.fdm, stream(0, "r"))
        assert len(seen) == cfg.n_euler_steps
        assert all(out._parents == () and out._backward is None for out in seen)

    def test_zero_euler_steps_refused(self):
        with pytest.raises(ValueError, match="n_euler_steps"):
            ModelConfig(n_euler_steps=0)


class TestDiscriminator:
    def test_untrained_ce_near_uniform(self, cfg, model):
        # tiny init => logits near zero => per-token CE ~ ln|E|
        z = stream(15, "disc").normal(0, 1, (200, cfg.d_z)).astype(F32)
        logits = disc_classify(z, model.disc, 0.25).data
        p = np.exp(logits) / np.exp(logits).sum(1, keepdims=True)
        ce = -np.log(p).mean()
        assert abs(ce - np.log(cfg.n_embodiments)) < 0.1

    def test_grl_scales_gradient(self, cfg, model):
        z0 = stream(16, "disc-grl").normal(0, 1, (4, cfg.d_z)).astype(F32)
        grads = {}
        for alpha in (0.25, 0.5):
            z = Tensor(z0.copy(), requires_grad=True)
            (disc_classify(z, model.disc, alpha) ** 2).sum().backward()
            grads[alpha] = z.grad.copy()
        np.testing.assert_allclose(grads[0.5], 2.0 * grads[0.25], rtol=1e-5)


class TestA2l:
    def test_empty_sequence(self, cfg, model):
        out = a2l_predict(np.zeros((0, 5), F32), _tokens(cfg)[:5], model.a2l)
        assert out.shape == (0, cfg.d_z)

    def test_empty_batch(self, cfg, model):
        ctx = np.stack([_tokens(cfg, seed=s)[:5] for s in (1, 2, 3)])
        out = a2l_predict(np.zeros((3, 0, 5), F32), ctx, model.a2l)
        assert out.shape == (3, 0, cfg.d_z)

    @pytest.mark.parametrize("pointwise", [False, True])
    def test_batch_matches_per_episode_calls(self, cfg, model, pointwise):
        a = stream(19, "a2l-batch").uniform(-1, 1, (3, 16, 5)).astype(F32)
        ctx = np.stack([_tokens(cfg, seed=s)[:5] for s in (1, 2, 3)])
        batched = a2l_predict(a, ctx, model.a2l, pointwise=pointwise).data
        single = np.stack([a2l_predict(a[i], ctx[i], model.a2l, pointwise=pointwise).data
                           for i in range(3)])
        np.testing.assert_array_equal(batched, single)

    def test_deterministic(self, cfg, model):
        a = stream(17, "a2l").uniform(-1, 1, (16, 5)).astype(F32)
        ctx = _tokens(cfg)[:5]
        o1 = a2l_predict(a, ctx, model.a2l).data
        o2 = a2l_predict(a, ctx, model.a2l).data
        np.testing.assert_array_equal(o1, o2)

    def test_pointwise_ignores_context(self, cfg, model):
        a = stream(18, "a2l-pt").uniform(-1, 1, (16, 5)).astype(F32)
        o1 = a2l_predict(a, _tokens(cfg, seed=1)[:5], model.a2l, pointwise=True).data
        o2 = a2l_predict(a, _tokens(cfg, seed=2)[:5], model.a2l, pointwise=True).data
        np.testing.assert_array_equal(o1, o2)
        o3 = a2l_predict(a, _tokens(cfg, seed=1)[:5], model.a2l).data
        assert np.abs(o1 - o3).max() > 1e-5

    def test_sequence_variant_requires_context(self, model):
        with pytest.raises(ValueError):
            a2l_predict(np.zeros((3, 5), F32), np.zeros((0, 12), F32), model.a2l)

    def test_pad_actions(self):
        out = pad_actions(np.ones((3, 2), F32), 5)
        assert out.shape == (3, 5)
        np.testing.assert_array_equal(out[:, 2:], 0.0)
        with pytest.raises(ValueError):
            pad_actions(np.ones((3, 6), F32), 5)


class TestCheckpointing:
    def test_roundtrip_preserves_outputs(self, cfg, model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, model.numpy_params())
        fresh = build_model(cfg, stream(99, "fresh"), with_a2l=True, with_gtcond=True)
        v = _tokens(cfg)
        before = idm_infer(v, fresh.idm).mu.data.copy()
        fresh.load(load_checkpoint(path))
        after = idm_infer(v, fresh.idm).mu.data
        assert np.abs(before - after).max() > 1e-6
        np.testing.assert_array_equal(after, idm_infer(v, model.idm).mu.data)
        assert checksum(fresh.numpy_params()) == checksum(model.numpy_params())

    def test_missing_key_rejected(self, cfg, model):
        partial = model.numpy_params()
        partial.pop(sorted(partial)[0])
        fresh = build_model(cfg, stream(98, "fresh2"), with_a2l=True, with_gtcond=True)
        with pytest.raises(KeyError):
            fresh.load(partial)
