"""Learned components: inverse dynamics, flow-matching forward dynamics,
embodiment discriminator, and the action-to-latent controller.

All components are plain MLP stacks over the autodiff Tensor type. The
forward model consumes a latent token sequence v_{1:F} (the latent encoder
is the identity here, so v = x), conditions on the inferred latent actions
through adaptive layer norm, and is trained as a flow-matching velocity
predictor with per-token noise levels (diffusion forcing).
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, concat, grl, no_grad, reparam_sample
from .nn import (
    CausalConvKernel,
    Mlp,
    ModulationWeights,
    adaln_modulate,
    causal_temporal_conv,
    init_linear,
    time_embed,
)

F32 = np.float32

# Episodes per Euler block in `rollout_generate`: a 64-row block's (64, F,
# 128) hidden activations (0.5 MB at F = 17) stay in a 2 MB L2 cache. On a
# Xeon with 2 MB L2 per core, one 400-row block ran 1.9x slower per row.
ROLLOUT_BLOCK_ROWS = 64


def linear_schedule(tau):
    """sigma_tau = tau: noise fraction equals the time coordinate."""
    return tau


@dataclass
class ModelConfig:
    d_v: int = 12              # latent token width (identity encoder: = d_x)
    d_z: int = 8               # latent action width
    d_c: int = 16              # conditioning width after temporal conv
    d_a_max: int = 5           # raw-action interface width (data: = d_a)
    n_embodiments: int = 4
    idm_hidden: tuple = (64, 64, 64)
    fdm_hidden: tuple = (128, 128, 128)
    disc_hidden: tuple = (32, 32)
    a2l_hidden: tuple = (64, 64)
    a2l_memory: int = 16
    time_width: int = 8
    f_hist: int = 5
    p_clean: float = 0.5
    n_euler_steps: int = 8

    def __post_init__(self):
        if self.time_width % 2:
            raise ValueError("time_width must be even")
        if not 0.0 <= self.p_clean <= 1.0:
            raise ValueError("p_clean must lie in [0, 1]")
        if self.n_euler_steps < 1:
            raise ValueError("n_euler_steps must be >= 1")
        if self.f_hist < 1:
            raise ValueError("f_hist must be >= 1: the last history token is "
                             "the forward model's clean context")


def dataset_fields(spec):
    """The ModelConfig fields a dataset's DGPSpec sets: the token width, the
    raw-action width and the embodiment count."""
    return {"d_v": spec.d_x, "d_a_max": spec.d_a, "n_embodiments": spec.n_embodiments}


@dataclass
class LatentActionPosterior:
    """Per-transition diagonal Gaussian over the latent action."""

    mu: Tensor          # (T-1, d_z)
    log_sigma: Tensor   # (T-1, d_z)

    def sample(self, rng):
        eps = rng.standard_normal(self.mu.shape).astype(F32)
        return reparam_sample(self.mu, self.log_sigma.exp(), eps)


@dataclass
class FlowBatch:
    tau_seq: np.ndarray
    v_tilde: np.ndarray
    u_tau: np.ndarray


def make_flow_target(v, epsilon, tau_seq):
    """Noise the clean sequence and form the velocity target.

    v_tilde = (1 - sigma_tau) v + sigma_tau eps, u_tau = eps - v.
    """
    v = np.asarray(v, F32)
    epsilon = np.asarray(epsilon, F32)
    tau_seq = np.asarray(tau_seq, F32)
    if epsilon.shape != v.shape:
        raise ValueError(f"epsilon shape {epsilon.shape} != v shape {v.shape}")
    if tau_seq.shape != v.shape[:-1]:
        raise ValueError("tau_seq must hold one noise level per token")
    if tau_seq.min() < 0 or tau_seq.max() > 1:
        raise ValueError("tau values must lie in [0, 1]")
    sigma = linear_schedule(tau_seq)[..., None]
    v_tilde = (1.0 - sigma) * v + sigma * epsilon
    return FlowBatch(tau_seq=tau_seq, v_tilde=v_tilde, u_tau=epsilon - v)


def diffusion_forcing_schedule(F, f_hist, p_clean, rng):
    """Independent tau_f ~ U[0,1]; with probability p_clean the whole
    history block is clamped clean (tau = 0)."""
    if not 0 <= f_hist <= F:
        raise ValueError("need 0 <= f_hist <= F")
    tau = rng.uniform(0.0, 1.0, F).astype(F32)
    if f_hist and rng.uniform() < p_clean:
        tau[:f_hist] = 0.0
    return tau


# ---- parameter containers ----

class _Component:
    """Name-prefixed parameter bag with checkpoint plumbing."""

    prefix = ""

    def params(self):
        return {f"{self.prefix}.{k}": t for k, t in self._named().items()}

    def load(self, tensors):
        mine = self.params()
        for name, t in mine.items():
            if name not in tensors:
                raise KeyError(f"checkpoint missing {name}")
            if tensors[name].shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}")
            t.data[...] = tensors[name].astype(t.data.dtype)


class IdmParams(_Component):
    prefix = "idm"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        widths = [2 * cfg.d_v, *cfg.idm_hidden, 2 * cfg.d_z]
        self.mlp = Mlp(widths, rng, activation="gelu")
        self.cond_kernel = CausalConvKernel(cfg.d_z, cfg.d_c, rng)

    def _named(self):
        named = dict(self.mlp.params())
        named.update(self.cond_kernel.params())
        return named


class FdmParams(_Component):
    prefix = "fdm"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        d_in = 3 * cfg.d_v + cfg.time_width
        widths = [d_in, *cfg.fdm_hidden]
        self.layers = []
        self.mods = []
        for i in range(len(widths) - 1):
            self.layers.append(init_linear(rng, widths[i], widths[i + 1]))
            self.mods.append(ModulationWeights(cfg.d_c, widths[i + 1], rng))
        self.w_out, self.b_out = init_linear(rng, widths[-1], cfg.d_v)

    def _named(self):
        named = {}
        for i, (w, b) in enumerate(self.layers):
            named[f"block{i}.w"] = w
            named[f"block{i}.b"] = b
            named[f"block{i}.mod.w"] = self.mods[i].w
            named[f"block{i}.mod.b"] = self.mods[i].b
        named["out.w"] = self.w_out
        named["out.b"] = self.b_out
        return named


class DiscParams(_Component):
    prefix = "disc"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        widths = [cfg.d_z, *cfg.disc_hidden, cfg.n_embodiments]
        self.mlp = Mlp(widths, rng, activation="gelu")

    def _named(self):
        return dict(self.mlp.params())


class A2LParams(_Component):
    prefix = "a2l"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.encoder = Mlp([cfg.d_v, *cfg.a2l_hidden, cfg.a2l_memory], rng,
                           activation="gelu")
        d_in = cfg.d_a_max + cfg.a2l_memory
        self.decoder = Mlp([d_in, *cfg.a2l_hidden, cfg.d_z], rng, activation="gelu")

    def _named(self):
        named = {f"enc.{k}": t for k, t in self.encoder.params().items()}
        named.update({f"dec.{k}": t for k, t in self.decoder.params().items()})
        return named


class ActionCondParams(_Component):
    """Conditioning path for raw-action baselines: padded actions are run
    through the same causal temporal conv used for latent actions."""

    prefix = "gtcond"

    def __init__(self, cfg, rng):
        self.cfg = cfg
        self.cond_kernel = CausalConvKernel(cfg.d_a_max, cfg.d_c, rng)

    def _named(self):
        return dict(self.cond_kernel.params())


@dataclass
class ScarModel:
    cfg: ModelConfig
    idm: IdmParams
    fdm: FdmParams
    disc: DiscParams
    a2l: A2LParams = None
    gtcond: ActionCondParams = None

    def params(self):
        out = {}
        for comp in (self.idm, self.fdm, self.disc, self.a2l, self.gtcond):
            if comp is not None:
                out.update(comp.params())
        return out

    def numpy_params(self):
        return {k: t.data.copy() for k, t in self.params().items()}

    def load(self, tensors):
        for comp in (self.idm, self.fdm, self.disc, self.a2l, self.gtcond):
            if comp is not None:
                comp.load(tensors)


def build_model(cfg, rng, with_a2l=False, with_gtcond=False):
    return ScarModel(
        cfg=cfg,
        idm=IdmParams(cfg, rng),
        fdm=FdmParams(cfg, rng),
        disc=DiscParams(cfg, rng),
        a2l=A2LParams(cfg, rng) if with_a2l else None,
        gtcond=ActionCondParams(cfg, rng) if with_gtcond else None,
    )


# ---- forward passes ----

def idm_infer(v_seq, idm):
    """Posterior over per-transition latent actions from the token sequence.

    Accepts (T, d_v) or any leading batch shape (..., T, d_v).
    """
    v_seq = as_tensor(v_seq)
    T = v_seq.shape[-2]
    if T < 2:
        raise ValueError("need at least two tokens to infer a transition")
    pairs = concat([v_seq[..., :-1, :], v_seq[..., 1:, :]], axis=-1)
    out = idm.mlp(pairs)
    d_z = idm.cfg.d_z
    return LatentActionPosterior(mu=out[..., :d_z], log_sigma=out[..., d_z:])


def cond_sequence(seq, component):
    """Align per-transition inputs to the token timeline: a zero token is
    placed before the first one so token f is conditioned only on actions
    strictly before it, then the component's causal temporal conv maps them
    to conditioning tokens. Serves latent actions (`model.idm`) and padded
    raw actions (`model.gtcond`) alike."""
    seq = as_tensor(seq)
    zero = Tensor(np.zeros((*seq.shape[:-2], 1, seq.shape[-1]), F32))
    padded = concat([zero, seq], axis=-2)
    return causal_temporal_conv(padded, component.cond_kernel)


def pad_actions(a_seq, d_a_max):
    a_seq = np.asarray(a_seq, F32)
    if a_seq.shape[-1] > d_a_max:
        raise ValueError("action dimension exceeds the padded interface width")
    out = np.zeros((*a_seq.shape[:-1], d_a_max), F32)
    out[..., : a_seq.shape[-1]] = a_seq
    return out


def fdm_flow_predict(v_tilde, tau_seq, c_seq, fdm, v_ctx, bgs=None):
    """Predicted flow velocity for every token.

    Per-token input is the noised token, its noised predecessor (zeros for
    the first token), the clean context token `v_ctx` shared across the
    sequence (the last history frame), and the time embedding of its noise
    level; the conditioning sequence enters through AdaLN at every hidden
    block. Accepts (F, d_v) or any leading batch shape (..., F, d_v);
    tau_seq must match the leading-and-time shape and v_ctx, an array that
    is not differentiated, the leading shape. `bgs`, if given, holds each
    block's AdaLN modulation `c_seq @ mod.w + mod.b`, computed once for
    calls that share `c_seq`.
    """
    v_tilde = as_tensor(v_tilde)
    F = v_tilde.shape[-2]
    c_seq = as_tensor(c_seq)
    if c_seq.shape[-2] != F:
        raise ValueError(f"conditioning length {c_seq.shape[-2]} != token count {F}")
    temb = Tensor(time_embed(np.asarray(tau_seq, F32), fdm.cfg.time_width))
    zero = Tensor(np.zeros((*v_tilde.shape[:-2], 1, fdm.cfg.d_v), F32))
    prev = concat([zero, v_tilde[..., :-1, :]], axis=-2)
    v_ctx = np.asarray(v_ctx)
    ctx_tokens = Tensor(np.broadcast_to(v_ctx[..., None, :],
                                        (*v_ctx.shape[:-1], F, v_ctx.shape[-1])))
    h = concat([v_tilde, prev, ctx_tokens, temb], axis=-1)
    for (w, b), mod, bg in zip(fdm.layers, fdm.mods, bgs or [None] * len(fdm.mods)):
        h = adaln_modulate(h @ w + b, c_seq, mod, bg).gelu()
    return h @ fdm.w_out + fdm.b_out

def rollout_generate(context, c_seq, fdm, rng):
    """Euler-integrate the flow from tau=1 to tau=0 over the future tokens
    in `fdm.cfg.n_euler_steps` steps, clamping the context block to its
    clean values at every step. Builds no tape.

    Accepts a (f_hist, d_v) context with (F, d_c) conditioning and one
    Generator, or any leading batch shape shared by both with a sequence of
    Generators, one per leading row in C order. Each row draws its own
    noise, so a row's rollout equals its unbatched rollout.
    """
    context = np.asarray(context, F32)
    *lead, f_hist, d_v = context.shape
    F, d_c = c_seq.shape[-2:]
    if f_hist >= F:
        raise ValueError("context covers the whole horizon; nothing to generate")
    rngs = list(rng) if lead else [rng]
    if len(rngs) != math.prod(lead):
        raise ValueError(f"need one Generator per leading row: {len(rngs)} for {lead}")
    noise = np.stack([r.standard_normal((F - f_hist, d_v)).astype(F32) for r in rngs])
    rows = np.concatenate([context.reshape(-1, f_hist, d_v), noise], axis=-2)
    c_seq = c_seq.data if isinstance(c_seq, Tensor) else np.asarray(c_seq, F32)
    c_rows = np.broadcast_to(c_seq, (*lead, F, d_c)).reshape(-1, F, d_c)
    taus = np.linspace(1.0, 0.0, fdm.cfg.n_euler_steps + 1)
    with no_grad():
        for s in range(0, len(rows), ROLLOUT_BLOCK_ROWS):
            block = slice(s, s + ROLLOUT_BLOCK_ROWS)
            rows[block] = _euler(rows[block], c_rows[block], fdm, f_hist, taus)
    return rows.reshape(*lead, F, d_v)


def _euler(cur, c_seq, fdm, f_hist, taus):
    """Euler steps over `taus` for a (rows, F, d_v) block whose first
    `f_hist` tokens are the clean context."""
    context = cur[:, :f_hist].copy()
    tau_seq = np.zeros(cur.shape[:-1], F32)
    c = Tensor(c_seq)
    bgs = [c @ mod.w + mod.b for mod in fdm.mods]   # fixed for the whole rollout
    for k in range(len(taus) - 1):
        tau_seq[:, f_hist:] = taus[k]
        u_hat = fdm_flow_predict(cur, tau_seq, c_seq, fdm, v_ctx=context[:, -1], bgs=bgs).data
        cur = cur + (taus[k + 1] - taus[k]) * u_hat
        cur[:, :f_hist] = context
    return cur


def disc_classify(z, disc, alpha):
    """Per-token embodiment logits; the gradient-reversal node sits between
    the latent and the classifier, scaling upstream gradients by -alpha."""
    return disc.mlp(grl(as_tensor(z), alpha))


def a2l_predict(a_seq, context, a2l, pointwise=False):
    """Latent-action sequence from raw commands plus visual context.

    The context tokens are encoded and mean-pooled into a memory vector that
    is broadcast to every decoding step; the pointwise variant zeroes the
    memory so the comparison isolates context, not capacity. Accepts
    (T, d_a) actions with (F, d_v) context, or any leading batch shape
    shared by both.
    """
    a_pad = pad_actions(a_seq, a2l.cfg.d_a_max)
    lead, n = a_pad.shape[:-2], a_pad.shape[-2]
    if n == 0:
        return Tensor(np.zeros((*lead, 0, a2l.cfg.d_z), F32))
    if pointwise:
        memory = Tensor(np.zeros((*lead, 1, a2l.cfg.a2l_memory), F32))
    else:
        context = np.asarray(context, F32)
        if context.shape[-2] == 0:
            raise ValueError("sequence variant needs a nonempty context")
        memory = a2l.encoder(Tensor(context)).mean(axis=-2, keepdims=True)
    mem_rows = concat([memory] * n, axis=-2)
    return a2l.decoder(concat([Tensor(a_pad), mem_rows], axis=-1))
