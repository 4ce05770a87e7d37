"""Neural building blocks: MLP stacks, AdaLN modulation, causal temporal
convolution, sinusoidal time embedding."""

import numpy as np

from .autodiff import Tensor, adaln, concat


def init_linear(rng, fan_in, fan_out):
    """Uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
    b = np.zeros(fan_out, dtype=np.float32)
    return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)


class Mlp:
    """Plain MLP over `widths`, input width first and output width last;
    activation on all but the final layer."""

    def __init__(self, widths, rng, activation="tanh"):
        if len(widths) < 2:
            raise ValueError("Mlp needs at least input and output widths")
        if any(w <= 0 for w in widths):
            raise ValueError("widths must be positive")
        if activation not in ("tanh", "gelu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.act = Tensor.tanh if activation == "tanh" else Tensor.gelu
        self.layers = [init_linear(rng, a, b) for a, b in zip(widths[:-1], widths[1:])]

    def __call__(self, x):
        for i, (w, b) in enumerate(self.layers):
            x = x @ w + b
            if i < len(self.layers) - 1:
                x = self.act(x)
        return x

    def params(self):
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"mlp.l{i}.w"] = w
            out[f"mlp.l{i}.b"] = b
        return out


class ModulationWeights:
    """Linear map from a conditioning vector to concatenated (beta, gamma)."""

    def __init__(self, cond_width, hidden_width, rng):
        self.hidden_width = hidden_width
        self.w, self.b = init_linear(rng, cond_width, 2 * hidden_width)


def adaln_modulate(h, c, mod, bg=None):
    """(1 + gamma) * LN(h) + beta with (beta, gamma) = W_mod c.

    Zeroed conditioning (c=0, zero bias) reduces exactly to LN(h). `bg`, if
    given, is `c @ mod.w + mod.b` computed beforehand, for a caller that
    modulates with the same conditioning many times. `h` may hold the rows
    of `c`'s leading axes flattened, as `(rows, d)`; the modulation is
    computed in `c`'s shape and only its result is reshaped.
    """
    d = h.shape[-1]
    if d != mod.hidden_width:
        raise ValueError(f"hidden width {d} != modulation width {mod.hidden_width}")
    if bg is None:
        bg = c @ mod.w + mod.b
    if bg.shape[:-1] != h.shape[:-1]:
        bg = bg.reshape(*h.shape[:-1], 2 * d)
    return adaln(bg, h)


class CausalConvKernel:
    """Weights for the causal temporal convolution: the first output token
    reads the first input token through `first`, every later output token
    reads its own input token through `blk0`."""

    def __init__(self, d_in, d_out, rng):
        self.w_first, self.b_first = init_linear(rng, d_in, d_out)
        self.w_blk, self.b_blk = init_linear(rng, d_in, d_out)

    def params(self):
        return {"cconv.first.w": self.w_first, "cconv.first.b": self.b_first,
                "cconv.blk0.w": self.w_blk, "cconv.blk0.b": self.b_blk}


def causal_temporal_conv(z_seq, kernel):
    """Map T tokens to T conditioning tokens; token f sees only z_f.
    `z_seq`: Tensor of shape (..., T, d_in)."""
    first = z_seq[..., :1, :] @ kernel.w_first + kernel.b_first
    rest = z_seq[..., 1:, :] @ kernel.w_blk + kernel.b_blk
    return concat([first, rest], axis=-2)


def time_embed(tau, width):
    """Sinusoidal embedding of tau in [0, 1]; frequencies geometrically spaced
    from 1 to 1000.

    Returns a plain float32 array: (..., width) = [sin(w_k tau), cos(w_k tau)].
    """
    if width % 2 != 0:
        raise ValueError("width must be even")
    tau = np.asarray(tau, dtype=np.float32)
    half = width // 2
    k = np.arange(half)
    freqs = 1000.0 ** (k / max(half - 1, 1))
    ang = tau[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1).astype(np.float32)
