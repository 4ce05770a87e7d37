import numpy as np
import pytest

from latact.autodiff import Tensor, gradcheck
from latact.nn import (
    CausalConvKernel,
    Mlp,
    ModulationWeights,
    adaln_modulate,
    causal_temporal_conv,
    time_embed,
)
from latact.rng import stream


class TestAdaln:
    def setup_method(self):
        self.rng = stream(0, "test-adaln")
        self.mod = ModulationWeights(cond_width=3, hidden_width=6, rng=self.rng)

    def test_zero_conditioning_reduces_to_layer_norm(self):
        h = Tensor(self.rng.normal(size=(2, 6)).astype(np.float32))
        c = Tensor(np.zeros((2, 3), np.float32))
        self.mod.b.data[...] = 0.0
        out = adaln_modulate(h, c, self.mod)
        mu = h.data.mean(-1, keepdims=True)
        ln = (h.data - mu) / np.sqrt(h.data.var(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out.data, ln, atol=1e-5)

    def test_gamma_minus_one_kills_hidden_path(self):
        # Craft c so gamma = -1 everywhere: out = beta, independent of h.
        mod = ModulationWeights(cond_width=1, hidden_width=4, rng=self.rng)
        mod.w.data[...] = 0.0
        mod.b.data[...] = np.concatenate([np.full(4, 0.7), np.full(4, -1.0)]).astype(np.float32)
        c = Tensor(np.zeros((1, 1), np.float32))
        out1 = adaln_modulate(Tensor(self.rng.normal(size=(1, 4)).astype(np.float32)), c, mod)
        out2 = adaln_modulate(Tensor(self.rng.normal(size=(1, 4)).astype(np.float32)), c, mod)
        np.testing.assert_allclose(out1.data, np.full((1, 4), 0.7), atol=1e-6)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)

    def test_gradcheck(self):
        h0 = self.rng.normal(size=(2, 6)).astype(np.float32)
        c0 = self.rng.normal(size=(2, 3)).astype(np.float32)
        h, c = Tensor(h0), Tensor(c0)
        assert gradcheck(lambda t: (adaln_modulate(t, c, self.mod) ** 2).sum(), h, eps=1e-4) < 1e-4
        assert gradcheck(lambda t: (adaln_modulate(h, t, self.mod) ** 2).sum(), c, eps=1e-4) < 1e-4
        assert gradcheck(
            lambda t: (adaln_modulate(h, c, _mod_with(self.mod, t)) ** 2).sum(),
            self.mod.w, eps=1e-4) < 1e-4

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            adaln_modulate(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))), self.mod)


def _mod_with(mod, w):
    clone = ModulationWeights.__new__(ModulationWeights)
    clone.hidden_width = mod.hidden_width
    clone.w, clone.b = w, mod.b
    return clone


def _per_token_conv(z, kernel):
    """Reference: token 0 through `first`, every later token through `blk0`,
    one matmul per token."""
    outs = [z[..., :1, :] @ kernel.w_first.data + kernel.b_first.data]
    for f in range(1, z.shape[-2]):
        outs.append(z[..., f:f + 1, :] @ kernel.w_blk.data + kernel.b_blk.data)
    return np.concatenate(outs, axis=-2)


class TestCausalConv:
    def test_identity_weights_pass_tokens_through(self):
        rng = stream(1, "test-cconv")
        kernel = CausalConvKernel(3, 3, rng)
        for w, b in ((kernel.w_first, kernel.b_first), (kernel.w_blk, kernel.b_blk)):
            w.data[...] = np.eye(3, dtype=np.float32)
            b.data[...] = 0.0
        z = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        out = causal_temporal_conv(z, kernel)
        np.testing.assert_allclose(out.data, z.data, atol=1e-6)

    def test_matches_per_token_reference(self):
        rng = stream(2, "test-cconv-ref")
        kernel = CausalConvKernel(8, 16, rng)
        for shape in ((17, 8), (16, 17, 8)):
            z = rng.normal(size=shape).astype(np.float32)
            out = causal_temporal_conv(Tensor(z), kernel)
            assert out.shape == (*shape[:-1], 16)
            np.testing.assert_array_equal(out.data, _per_token_conv(z, kernel))

    def test_causality_by_autodiff(self):
        # d c_f / d z_j is nonzero only for j = f.
        rng = stream(4, "test-cconv-causal")
        T, d = 9, 3
        kernel = CausalConvKernel(d, 2, rng)
        for f in range(T):
            z = Tensor(rng.normal(size=(T, d)).astype(np.float32), requires_grad=True)
            causal_temporal_conv(z, kernel)[f].sum().backward()
            touched = {j for j in range(T) if np.any(z.grad[j] != 0)}
            assert touched == {f}, f"token {f} reads inputs {sorted(touched)}"

    def test_perturbation_oracle(self):
        # Perturbing z_j changes c_j and leaves every other token bit-identical.
        rng = stream(5, "test-cconv-perturb")
        T, d = 13, 3
        kernel = CausalConvKernel(d, 2, rng)
        z0 = rng.normal(size=(T, d)).astype(np.float32)
        base = causal_temporal_conv(Tensor(z0), kernel).data
        j = 6
        z1 = z0.copy()
        z1[j] += 1.0
        out = causal_temporal_conv(Tensor(z1), kernel).data
        for f in range(T):
            if f == j:
                assert np.any(out[f] != base[f])
            else:
                np.testing.assert_array_equal(out[f], base[f])

    def test_gradcheck(self):
        rng = stream(6, "test-cconv-gc")
        kernel = CausalConvKernel(3, 2, rng)
        z = Tensor(rng.normal(size=(2, 5, 3)).astype(np.float32))
        assert gradcheck(lambda t: (causal_temporal_conv(t, kernel) ** 2).sum(), z, eps=1e-4) < 1e-4

        def with_w_blk(t):
            clone = CausalConvKernel.__new__(CausalConvKernel)
            clone.__dict__.update(vars(kernel))
            clone.w_blk = t
            return clone
        assert gradcheck(lambda t: (causal_temporal_conv(z, with_w_blk(t)) ** 2).sum(),
                         kernel.w_blk, eps=1e-4) < 1e-4


class TestTimeEmbed:
    def test_tau_zero(self):
        emb = time_embed(0.0, 8)
        np.testing.assert_array_equal(emb[:4], 0.0)
        np.testing.assert_array_equal(emb[4:], 1.0)

    def test_distinct_on_grid(self):
        taus = np.arange(0, 1.0001, 1e-3)
        embs = time_embed(taus, 16)
        # all pairwise distinct: check sorted unique row count
        assert len(np.unique(embs.round(7), axis=0)) == len(taus)

    def test_lipschitz_per_coordinate(self):
        # |d/dtau sin(w tau)| <= w: finite differences stay below freq bound.
        width, half = 16, 8
        freqs = 1000.0 ** (np.arange(half) / (half - 1))
        t = np.linspace(0, 1, 2001)
        e = time_embed(t, width).astype(np.float64)
        rates = np.abs(np.diff(e, axis=0) / np.diff(t)[:, None])
        bound = np.concatenate([freqs, freqs])
        assert np.all(rates <= bound[None, :] * 1.001 + 1e-6)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            time_embed(0.5, 7)


def test_mlp_spec_validation_and_gradcheck():
    rng = stream(7, "test-mlp")
    with pytest.raises(ValueError):
        Mlp([4], rng)
    with pytest.raises(ValueError):
        Mlp([4, -1], rng)
    with pytest.raises(ValueError):
        Mlp([4, 4], rng, activation="relu6")

    for act in ("tanh", "gelu"):
        mlp = Mlp([3, 8, 2], rng, activation=act)
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32))
        assert mlp(x).shape == (4, 2)
        assert gradcheck(lambda t: (mlp(t) ** 2).sum(), x, eps=1e-4) < 1e-4
        w0 = mlp.layers[0][0]
        assert gradcheck(lambda t: (_mlp_with_w0(mlp, t)(x) ** 2).sum(), w0, eps=1e-4) < 1e-4


def _mlp_with_w0(mlp, w0):
    def run(x):
        layers = [(w0, mlp.layers[0][1])] + mlp.layers[1:]
        for i, (w, b) in enumerate(layers):
            x = x @ w + b
            if i < len(layers) - 1:
                x = mlp.act(x)
        return x
    return run


def test_init_bounds():
    rng = stream(9, "test-init")
    mlp = Mlp([16, 8], rng)
    w = mlp.layers[0][0].data
    assert np.abs(w).max() <= 1.0 / np.sqrt(16) + 1e-7
