import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latact import autodiff
from latact.autodiff import (
    Tensor,
    adaln,
    concat,
    gradcheck,
    grl,
    kl_diag_gaussian,
    layer_norm,
    log_softmax,
    no_grad,
    reparam_sample,
    softmax_cross_entropy,
)
from latact.rng import stream


def test_sum_of_squares_gradient_exact():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0])
    assert gradcheck(lambda t: (t * t).sum(), x) < 1e-6


def test_gradcheck_softmax_cross_entropy():
    rng = stream(0, "test-ce")
    logits = Tensor(rng.normal(size=6).astype(np.float32))
    err = gradcheck(lambda t: softmax_cross_entropy(t, 2), logits, eps=1e-3)
    assert err < 1e-4


def test_grl_backward_is_scaled_negation():
    # Analytic grad through grl equals -alpha times the identity-composed grad.
    rng = stream(1, "test-grl")
    x0 = rng.normal(size=5).astype(np.float32)
    alpha = 0.25

    x = Tensor(x0, requires_grad=True)
    (grl(x, alpha) ** 2).sum().backward()
    g_rev = x.grad.copy()

    y = Tensor(x0, requires_grad=True)
    (y ** 2).sum().backward()
    np.testing.assert_allclose(g_rev, -alpha * y.grad, rtol=1e-6)


def test_grl_forward_identity_and_alpha_zero_detaches():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = grl(x, 0.25)
    np.testing.assert_array_equal(out.data, [1.0, 2.0])

    upstream = Tensor([1.0, 1.0], requires_grad=True)
    (grl(upstream, 0.25)).sum().backward()
    np.testing.assert_allclose(upstream.grad, [-0.25, -0.25])

    z = Tensor([3.0], requires_grad=True)
    grl(z, 0.0).sum().backward()
    np.testing.assert_array_equal(z.grad, [0.0])

    with pytest.raises(ValueError):
        grl(x, -1.0)


class TestKlDiagGaussian:
    def test_zero_at_prior(self):
        mu = Tensor(np.zeros(4))
        sigma = Tensor(np.ones(4))
        assert float(kl_diag_gaussian(mu, sigma).data) == 0.0

    def test_half_for_unit_mean(self):
        kl = kl_diag_gaussian(Tensor([1.0, 0.0]), Tensor([1.0, 1.0]))
        assert abs(float(kl.data) - 0.5) < 1e-6

    def test_matches_monte_carlo(self):
        # Oracle: E_q[log q - log p] estimated over 1e6 standard-normal draws.
        rng = stream(7, "test-kl-mc")
        mu = rng.normal(size=8)
        sigma = np.exp(rng.normal(scale=0.3, size=8))
        eps = rng.normal(size=(1_000_000, 8))
        z = mu + sigma * eps
        log_q = (-0.5 * eps**2 - np.log(sigma)).sum(axis=1)
        log_p = (-0.5 * z**2).sum(axis=1)
        mc = (log_q - log_p).mean()
        kl = float(kl_diag_gaussian(Tensor(mu), Tensor(sigma)).data)
        assert abs(kl - mc) < 1e-2

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="index 1"):
            kl_diag_gaussian(Tensor([0.0, 0.0]), Tensor([1.0, -1.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = stream(seed, "test-kl-prop")
        mu = Tensor(rng.normal(size=5))
        sigma = Tensor(np.exp(rng.normal(size=5)))
        assert float(kl_diag_gaussian(mu, sigma).data) >= 0.0

    def test_gradcheck(self):
        rng = stream(3, "test-kl-gc")
        mu = Tensor(rng.normal(size=4).astype(np.float32))
        sig0 = np.exp(rng.normal(scale=0.2, size=4)).astype(np.float32)
        assert gradcheck(lambda m: kl_diag_gaussian(m, Tensor(sig0)), mu) < 1e-4
        sig = Tensor(sig0)
        assert gradcheck(lambda s: kl_diag_gaussian(Tensor(mu.data), s), sig) < 1e-4


class TestReparamSample:
    def test_zero_eps_returns_mu(self):
        mu, sigma = Tensor([1.0, -2.0]), Tensor([0.5, 3.0])
        np.testing.assert_array_equal(reparam_sample(mu, sigma, np.zeros(2)).data, mu.data)

    def test_zero_sigma_ignores_eps(self):
        out = reparam_sample(Tensor([1.0]), Tensor([0.0]), np.array([100.0]))
        np.testing.assert_array_equal(out.data, [1.0])

    def test_arithmetic(self):
        out = reparam_sample(Tensor([0.0]), Tensor([2.0]), np.array([1.5]))
        np.testing.assert_array_equal(out.data, [3.0])

    def test_gradient_reaches_mu_and_sigma_not_eps(self):
        mu = Tensor([0.5], requires_grad=True)
        sigma = Tensor([2.0], requires_grad=True)
        reparam_sample(mu, sigma, np.array([3.0])).sum().backward()
        np.testing.assert_allclose(mu.grad, [1.0])
        np.testing.assert_allclose(sigma.grad, [3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reparam_sample(Tensor([0.0]), Tensor([1.0, 1.0]), np.zeros(1))


class TestCrossEntropyAndLayerNorm:
    def test_uniform_logits(self):
        ce = softmax_cross_entropy(Tensor(np.zeros(4)), 1)
        assert abs(float(ce.data) - np.log(4)) < 1e-6

    def test_dominant_logit(self):
        logits = np.zeros(4)
        logits[2] = 30.0
        assert float(softmax_cross_entropy(Tensor(logits), 2).data) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros(3)), 3)

    def test_batched_mean(self):
        logits = Tensor(np.zeros((5, 4)))
        ce = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(float(ce.data) - np.log(4)) < 1e-6

    @pytest.mark.parametrize("shape", [(256, 4), (4096, 5), (3, 256, 4)])
    def test_log_softmax_equals_the_reduce_max_expressions(self, shape):
        x = stream(7, "test-log-softmax").normal(0, 3, shape).astype(np.float32)
        flat = x.reshape(-1, shape[-1])     # a view: writes reach x
        flat[1, 2] = np.nan                 # a row holding a NaN
        z = flat - flat.max(axis=1, keepdims=True)
        want = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        got = log_softmax(x).reshape(flat.shape)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[1]).all() and np.isfinite(np.delete(got, 1, axis=0)).all()

    def test_layer_norm_constant_vector(self):
        h = Tensor(np.full(8, 3.0))
        out = layer_norm(h, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, np.zeros(8), atol=1e-4)

    def test_layer_norm_statistics(self):
        rng = stream(5, "test-ln")
        h = Tensor(rng.normal(size=(3, 16)))
        out = layer_norm(h, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-3)

    @pytest.mark.parametrize("shape", [(3, 16), (2, 5, 128)])
    def test_layer_norm_bits_match_numpy_var(self, shape):
        # the variance reuses x - mean; the bits are those of numpy's `var`
        rng = stream(8, "test-ln-bits")
        x = rng.normal(1.0, 2.0, shape).astype(np.float32)
        gain = rng.normal(size=shape[-1]).astype(np.float32)
        bias = rng.normal(size=shape[-1]).astype(np.float32)
        mu = x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        want = (x - mu) * inv * gain + bias
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        assert got.tobytes() == want.tobytes()

    def test_layer_norm_gradcheck(self):
        rng = stream(6, "test-ln-gc")
        h = Tensor(rng.normal(size=(2, 6)).astype(np.float32))
        gain = Tensor(rng.normal(size=6).astype(np.float32))
        bias = Tensor(rng.normal(size=6).astype(np.float32))
        err = gradcheck(lambda t: (layer_norm(t, gain, bias) ** 2).sum(), h, eps=1e-4)
        assert err < 1e-4
        err = gradcheck(lambda g: (layer_norm(h, g, bias) ** 2).sum(), gain, eps=1e-4)
        assert err < 1e-4


class TestAdaln:
    @pytest.mark.parametrize("shape", [(3, 17, 16), (17, 16)])
    def test_equals_the_unfused_composition(self, shape):
        # output and both gradients are the bits of
        # (gamma + 1) * layer_norm(h, ones, zeros) + beta over slices of bg
        rng = stream(21, "test-adaln-bits")
        d = shape[-1]
        h0 = rng.normal(1.0, 2.0, shape).astype(np.float32)
        bg0 = rng.normal(0.0, 0.5, (*shape[:-1], 2 * d)).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)

        h, bg = Tensor(h0, requires_grad=True), Tensor(bg0, requires_grad=True)
        ones, zeros = Tensor(np.ones(d, np.float32)), Tensor(np.zeros(d, np.float32))
        want = (bg[..., d:] + 1.0) * layer_norm(h, ones, zeros) + bg[..., :d]
        want.backward(g)

        h2, bg2 = Tensor(h0, requires_grad=True), Tensor(bg0, requires_grad=True)
        got = adaln(bg2, h2)
        got.backward(g)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.array_equal(bg2.grad, bg.grad) and np.array_equal(h2.grad, h.grad)

    def test_gradcheck_both_parents(self):
        rng = stream(22, "test-adaln-gc")
        h = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32))
        bg = Tensor(rng.normal(size=(2, 3, 12)).astype(np.float32))
        w = rng.normal(size=(2, 3, 6))      # so no coordinate's gradient is symmetric
        assert gradcheck(lambda t: (adaln(t, h) ** 2 * w).sum(), bg, eps=1e-4) < 1e-4
        assert gradcheck(lambda t: (adaln(bg, t) ** 2 * w).sum(), h, eps=1e-4) < 1e-4


class TestAccum:
    def test_owned_float32_gradient_is_stored_as_is(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((2, 3), np.float32)
        x._accum(g)
        assert x.grad is g

    @pytest.mark.parametrize("reduce", [lambda t: t.sum(), lambda t: t.mean(axis=-1)])
    def test_stride_zero_gradient_is_stored_as_a_contiguous_copy(self, reduce):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        reduce(x).sum().backward()     # the reduction hands back a broadcast view
        assert x.grad.flags.c_contiguous and x.grad.flags.writeable and x.grad.flags.owndata

    def test_second_gradient_adds_into_a_new_array(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        g1, g2 = np.ones(3, np.float32), np.full(3, 2.0, np.float32)
        x._accum(g1)
        x._accum(g2)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(g1, [1.0, 1.0, 1.0])


def test_backward_steps_never_write_into_their_gradient(monkeypatch):
    # `_accum` may store one array for several parents, so a backward step
    # must not write into the gradient it is handed: freeze every stored
    # gradient and run every op and the trainers' graphs
    from latact import training
    from latact.models import ModelConfig, build_model
    from latact.training import _stack_batch, make_config, total_loss, train_a2l
    from latact.worldgen import DGPSpec, generate_dataset

    accum = Tensor._accum

    def frozen(self, g):
        accum(self, g)
        if isinstance(self.grad, np.ndarray):     # numpy scalars are immutable
            self.grad.flags.writeable = False
    monkeypatch.setattr(Tensor, "_accum", frozen)

    rng = stream(23, "test-frozen")
    x = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    gain = Tensor(np.ones(4, np.float32), requires_grad=True)
    bg = Tensor(rng.normal(size=(3, 8)).astype(np.float32), requires_grad=True)
    y = layer_norm(x, gain, gain * 0.5) + adaln(bg, x).gelu() - x.reshape(4, 3).reshape(3, 4)
    y = concat([y, (x * x + 1.0).log(), -x.exp().tanh()], axis=-1)[[0, 2, 0]] ** 2
    s = reparam_sample(x[1:], x[:2].exp(), rng.normal(size=(2, 4)))
    loss = (y.mean(axis=0).sum() + y[..., 1:3].sum() + kl_diag_gaussian(s, (s * 0.1).exp())
            + softmax_cross_entropy(grl(x @ gain[:, None] + x[:, :1], 0.5), np.array([0, 0, 0])))
    loss.backward()

    dataset = generate_dataset(0, DGPSpec(T=9), m_target=4, source_count=4)
    for variant in ("scar-kl-grl", "gt-action-baseline"):
        model = build_model(ModelConfig(d_v=dataset.spec.d_x), stream(0, "test-frozen"),
                            with_gtcond=variant == "gt-action-baseline")
        batch = _stack_batch(dataset.episodes, list(range(4)), model.cfg.d_a_max)
        total_loss(model, batch, make_config(variant), stream(0, "test-frozen-noise"))[0].backward()
    monkeypatch.setattr(training, "A2L_STEPS", 2)
    for mode in ({}, {"pointwise": True}, {"ft": True}):
        model = build_model(ModelConfig(d_v=dataset.spec.d_x), stream(1, "test-frozen"),
                            with_a2l=True)
        train_a2l(model, dataset, make_config("shared-latent", seed=0), **mode)


def test_matmul_and_broadcast_gradcheck():
    rng = stream(9, "test-mm")
    w0 = rng.normal(size=(4, 3)).astype(np.float32)
    x = Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32))
    b = Tensor(rng.normal(size=3).astype(np.float32))
    assert gradcheck(lambda t: ((t @ Tensor(w0) + b).tanh() ** 2).sum(), x) < 1e-4
    w = Tensor(w0)
    assert gradcheck(lambda ww: ((x @ ww + b).tanh() ** 2).sum(), w) < 1e-4


def test_concat_stack_slice_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    concat([a, b]).sum().backward()
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])

    e = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    e[0].sum().backward()
    np.testing.assert_array_equal(e.grad, [[1, 1, 1], [0, 0, 0]])


def test_unreached_parameters_keep_unset_gradients():
    used = Tensor([1.0], requires_grad=True)
    unused = Tensor([1.0], requires_grad=True)
    (used * 2.0).sum().backward()
    assert used.grad is not None
    assert unused.grad is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_reporting():
    from latact.autodiff import NonFiniteError

    x = Tensor([0.0])
    with pytest.raises(NonFiniteError, match="log"):
        gradcheck(lambda t: t.log().sum(), x)


def test_backward_through_deep_chain():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    (y * y).sum().backward()
    np.testing.assert_array_equal(x.grad, [2 * 3001.0, 2 * 3002.0])


def _recursive_topo(root):
    """Reference order: recursive depth-first post-order over parents."""
    topo, seen = [], set()

    def visit(t):
        if id(t) in seen:
            return
        seen.add(id(t))
        for p in t._parents:
            visit(p)
        topo.append(t)

    visit(root)
    return topo


def test_backward_order_matches_recursive_post_order():
    a = Tensor([0.5, -1.0], requires_grad=True)
    b = Tensor([2.0, 0.25], requires_grad=True)
    s = a + b
    d = a - b
    h = (s * d).tanh() + s.exp() * a
    out = (h * h + d.tanh() * s).sum()
    calls = []
    for t in _recursive_topo(out):
        if t._backward is not None:
            def record(g, t=t, bw=t._backward):
                calls.append(t)
                bw(g)
            t._backward = record
    out.backward()
    expected = [t for t in reversed(_recursive_topo(out)) if t._backward is not None]
    assert [id(t) for t in calls] == [id(t) for t in expected]


def test_scar_backward_leaves_no_reference_cycles():
    from latact.models import ModelConfig, build_model
    from latact.training import _stack_batch, make_config, total_loss
    from latact.worldgen import DGPSpec, generate_dataset

    dataset = generate_dataset(0, DGPSpec(T=9), m_target=4, source_count=4)
    model = build_model(ModelConfig(d_v=dataset.spec.d_x), stream(0, "test-cycles"))
    batch = _stack_batch(dataset.episodes, list(range(4)), model.cfg.d_a_max)
    config = make_config("scar-kl-grl")
    gc.collect()
    gc.disable()
    try:
        loss, _ = total_loss(model, batch, config, stream(0, "test-cycles-noise"))
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("idx", [
    1, np.int64(-1), slice(1, 3), (Ellipsis, 2), (None, slice(None), 0),
    (0, slice(None, None, 2)), (slice(2), Ellipsis, None),
    [0, 2, 0], np.array([1, 1, 1]), np.array([True, False, True]),
    (np.array([0, 0]), slice(None)),
])
def test_slice_backward_matches_add_at(idx):
    rng = stream(12, "test-slice")
    x0 = rng.normal(size=(3, 4, 5)).astype(np.float32)
    x = Tensor(x0, requires_grad=True)
    out = x[idx]
    g = rng.normal(size=out.shape).astype(np.float32)
    out.backward(g)
    expected = np.zeros_like(x0)
    np.add.at(expected, idx, g)
    np.testing.assert_array_equal(x.grad, expected)


def test_fancy_index_with_repeats_accumulates():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    x[[0, 0, 2, 0]].sum().backward()
    np.testing.assert_array_equal(x.grad, [3.0, 0.0, 1.0])


def test_gelu_matches_float64_reference():
    x64 = np.linspace(-6.0, 6.0, 2001)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x64 + 0.044715 * x64 ** 3))
    ref = 0.5 * x64 * (1.0 + t)
    dref = 0.5 * (1.0 + t) + 0.5 * x64 * (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * x64 ** 2)

    x = Tensor(x64.astype(np.float32), requires_grad=True)
    y = x.gelu()
    y.sum().backward()
    assert y.data.dtype == np.float32
    # a few float32 roundings of values of order |x| <= 6
    np.testing.assert_allclose(y.data, ref, rtol=1e-6, atol=4e-6)
    np.testing.assert_allclose(x.grad, dref, rtol=1e-6, atol=4e-6)

    rng = stream(13, "test-gelu")
    xs = Tensor(rng.normal(scale=2.0, size=(3, 5)).astype(np.float32))
    assert gradcheck(lambda u: u.gelu().sum(), xs, eps=1e-4) < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bits_match_plain_expressions(dtype):
    x = np.concatenate([stream(14, "test-gelu-bits").normal(scale=3.0, size=5000),
                        np.linspace(-12, 12, 2001), [0.0, -0.0, 1e-30, -1e-30]]).astype(dtype)
    g = stream(15, "test-gelu-bits").normal(size=x.size).astype(dtype)
    c = np.float32(np.sqrt(2.0 / np.pi))
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    y_ref = 0.5 * x * (1.0 + t)
    d_ref = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * (c * (1.0 + 3 * 0.044715 * x ** 2))
    with autodiff.engine_flags(DTYPE=dtype):
        u = Tensor(x, requires_grad=True)
        y = u.gelu()
        y.backward(g)
    np.testing.assert_array_equal(y.data, y_ref)
    np.testing.assert_array_equal(u.grad, g * d_ref)


def test_gradcheck_floor_reads_near_zero_gradients_by_absolute_error():
    # one of these points sits at x = -4.03, where the gradient of gelu^2 is
    # 5e-8; relative to that, the central-difference residue read 1.7e-4
    xs = Tensor(stream(13, "test-gelu").normal(scale=2.0, size=(3, 5)).astype(np.float32))
    assert gradcheck(lambda u: (u.gelu() ** 2).sum(), xs) < 1e-4


def _gelu_without_cubic_term(u):
    """gelu forward with a backward that drops the 3 * 0.044715 x^2 term."""
    c = np.sqrt(2.0 / np.pi)
    y = u.gelu()
    t = np.tanh(c * (u.data + 0.044715 * u.data ** 3))

    return Tensor(y.data, _parents=(u,), op="bad_gelu",
                  _grads=(lambda g: g * (0.5 * (1.0 + t) + 0.5 * u.data * (1.0 - t ** 2) * c),))


def test_gradcheck_flags_a_wrong_gelu_backward():
    xs = Tensor(stream(13, "test-gelu").normal(scale=2.0, size=(3, 5)))
    assert gradcheck(lambda u: _gelu_without_cubic_term(u).sum(), xs, eps=1e-4) > 1e-2
    assert gradcheck(lambda u: (_gelu_without_cubic_term(u) ** 2).sum(), xs) > 1e-2


def _flags():
    return autodiff.DTYPE, autodiff.CHECK_FINITE, autodiff.GRAD_ENABLED


class TestNoGrad:
    def test_nodes_record_no_tape_even_from_parameters(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with no_grad():
            outs = [x @ w, (x @ w).gelu(), concat([w, w]), w[0], w.sum(), w * 2.0,
                    layer_norm(w, Tensor(np.ones(2)), Tensor(np.zeros(2)))]
        for out in outs:
            assert out._parents == () and out._backward is None and not out.requires_grad
        np.testing.assert_array_equal(outs[0].data, x.data @ w.data)

    def test_leaf_keeps_requires_grad(self):
        with no_grad():
            leaf = Tensor([1.0], requires_grad=True)
        assert leaf.requires_grad

    def test_nested_contexts_and_errors_restore_the_flag(self):
        with no_grad():
            with no_grad():
                assert not autodiff.GRAD_ENABLED
            assert not autodiff.GRAD_ENABLED
        assert autodiff.GRAD_ENABLED
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError("inside")
        assert autodiff.GRAD_ENABLED

    def test_gradients_after_the_context_match_those_before(self):
        w0 = stream(21, "test-nograd").normal(size=(4, 3))

        def grad():
            w = Tensor(w0, requires_grad=True)
            ((Tensor(np.ones((2, 4))) @ w).tanh() ** 2).sum().backward()
            return w.grad
        before = grad()
        with no_grad():
            w = Tensor(w0, requires_grad=True)
            ((Tensor(np.ones((2, 4))) @ w).tanh() ** 2).sum()
        np.testing.assert_array_equal(grad(), before)

    def test_gradcheck_enables_gradients_inside_no_grad(self):
        x = Tensor(np.array([0.5, -1.5]))
        with no_grad():
            assert gradcheck(lambda t: (t * t).sum(), x) < 1e-6
            assert not autodiff.GRAD_ENABLED

    def test_gradcheck_restores_all_flags_after_f_raises(self):
        before = _flags()

        def boom(t):
            assert _flags() == (np.float64, True, True)
            raise RuntimeError("f failed")
        for ctx in (no_grad, lambda: autodiff.engine_flags()):
            with ctx():
                inside = _flags()
                with pytest.raises(RuntimeError, match="f failed"):
                    gradcheck(boom, Tensor([1.0]))
                assert _flags() == inside
        assert _flags() == before
