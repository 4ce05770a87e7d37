"""Loss assembly and training loops for the latent-action variants, the
action-free forward-model pretraining phase, and the action-to-latent stage.

L_total = L_rec + beta * L_KL + lambda_adv * L_GRL. The discriminator and
the encoder update in a single optimizer step: the gradient-reversal node
between the latent and the classifier realizes the minimax.
"""

import csv
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, kl_diag_gaussian, no_grad, softmax_cross_entropy
from .models import (
    ModelConfig,
    a2l_predict,
    build_model,
    cond_sequence,
    dataset_fields,
    diffusion_forcing_schedule,
    disc_classify,
    fdm_flow_predict,
    idm_infer,
    make_flow_target,
    pad_actions,
)
from .optim import AdamW
from .rng import stream
from .serialize import checksum

F32 = np.float32

# A variant's row: its loss terms, and whether it trains on the target
# embodiment only or conditions on raw actions in place of latents
Variant = namedtuple("Variant", "kl grl target_only gt_action", defaults=[False, False])

VARIANTS = {
    "shared-latent": Variant(kl=False, grl=False),
    "scar-kl": Variant(kl=True, grl=False),
    "scar-grl": Variant(kl=False, grl=True),
    "scar-kl-grl": Variant(kl=True, grl=True),
    "target-only-latent": Variant(kl=False, grl=False, target_only=True),
    "gt-action-baseline": Variant(kl=False, grl=False, gt_action=True),
}

# The action-to-latent stage's step count and learning rate; `latact a2l`
# reads no config file
A2L_STEPS = 800
LR_A2L = 1e-4

# written outputs must be byte-identical across reruns of the same
# (command, config, seed), so the log holds no wall-clock column
LOG_COLUMNS = ["step", "L_total", "L_rec", "L_KL", "L_GRL", "grad_norm"]


class TrainingAborted(RuntimeError):
    def __init__(self, step, component, value):
        super().__init__(f"step {step}: {component} = {value}")
        self.step = step
        self.component = component


@dataclass
class TrainConfig:
    variant: str = "scar-kl-grl"
    beta: float = 5e-4
    lam_adv: float = 5e-3
    alpha: float = 0.25
    lr_idm: float = 5e-5
    lr_fdm: float = 5e-6
    lr_disc: float = 5e-5       # paper leaves this unstated; tied to the IDM rate
    wd_idm: float = 1e-4
    wd_fdm: float = 5e-2
    steps: int = 2000
    pretrain_steps: int = 500
    batch_episodes: int = 16
    seed: int = 0
    pretrain_fdm: bool = False
    kl_warmup_steps: int = 0    # linear ramp of beta from 0; 0 disables

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (choose from {sorted(VARIANTS)})")
        for name in ("beta", "lam_adv", "alpha", "lr_idm", "lr_fdm", "lr_disc",
                     "wd_idm", "wd_fdm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("steps", "batch_episodes") + ("pretrain_steps",) * self.pretrain_fdm:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for weight, term in (("beta", self.flags.kl), ("lam_adv", self.flags.grl)):
            if term and getattr(self, weight) == 0:
                raise ValueError(f"variant {self.variant} requires {weight} > 0")
            if not term and getattr(self, weight) != 0:
                raise ValueError(f"variant {self.variant} requires {weight} = 0")

    @property
    def flags(self):
        return VARIANTS[self.variant]


def make_config(variant, **overrides):
    """TrainConfig with loss weights consistent with the variant's gating:
    TrainConfig's default weights where a term is active, zero where not."""
    flags = VARIANTS.get(variant)   # None: TrainConfig refuses the variant
    base = {"variant": variant,
            "beta": TrainConfig.beta if flags and flags.kl else 0.0,
            "lam_adv": TrainConfig.lam_adv if flags and flags.grl else 0.0}
    base.update(overrides)
    return TrainConfig(**base)


def _episode_pool(dataset, config):
    if config.flags.target_only:
        pool = dataset.by_embodiment(dataset.target_e)
    else:
        pool = list(dataset.episodes)
    if not pool:
        raise ValueError("empty episode pool for this variant")
    return pool


def _stack_batch(pool, idx, d_a_max):
    eps = [pool[i] for i in idx]
    v = np.stack([ep.x for ep in eps])
    a = np.stack([pad_actions(ep.a, d_a_max) for ep in eps])
    e = np.array([ep.e for ep in eps])
    return v, a, e


def flow_loss(v, c_seq, fdm, rng):
    """Flow-matching loss under diffusion forcing on a (B, T, d_v) batch.

    Draws one noise-level schedule per episode, then one noise array for the
    whole batch, and predicts the flow velocity with the last history token
    as clean context; returns the mean squared error to the target velocity.
    """
    B, T, _ = v.shape
    cfg = fdm.cfg
    tau = np.stack([diffusion_forcing_schedule(T, cfg.f_hist, cfg.p_clean, rng)
                    for _ in range(B)])
    epsilon = rng.standard_normal(v.shape).astype(F32)
    fb = make_flow_target(v, epsilon, tau)
    pred = fdm_flow_predict(fb.v_tilde, fb.tau_seq, c_seq, fdm,
                            v_ctx=v[:, cfg.f_hist - 1, :])
    return ((pred - Tensor(fb.u_tau)) ** 2).mean()


def total_loss(model, batch, config, rng, step=None):
    """(L_total, components). Components are floats; inactive terms are None.

    L_rec: mean squared error between predicted and target flow velocity over
    all tokens. L_KL: KL to the standard normal, averaged per transition.
    L_GRL: mean classifier cross-entropy over all latent-action tokens.
    With kl_warmup_steps > 0 the KL weight ramps linearly from 0 so the
    posterior can settle on an informative code before being compressed.
    """
    v, a, e = batch
    B, T, _ = v.shape

    if config.flags.gt_action:
        c_seq = cond_sequence(a, model.gtcond)
        post = None
        z = None
    else:
        post = idm_infer(v, model.idm)
        z = post.sample(rng)
        c_seq = cond_sequence(z, model.idm)

    l_rec = flow_loss(v, c_seq, model.fdm, rng)
    total = l_rec
    components = {"L_rec": float(l_rec.data), "L_KL": None, "L_GRL": None}

    if config.flags.kl:
        beta = config.beta
        if config.kl_warmup_steps > 0 and step is not None:
            beta *= min(1.0, (step + 1) / config.kl_warmup_steps)
        l_kl = kl_diag_gaussian(post.mu, post.log_sigma.exp()) * (1.0 / (B * (T - 1)))
        total = total + l_kl * beta
        components["L_KL"] = float(l_kl.data)
    if config.flags.grl:
        logits = disc_classify(z, model.disc, config.alpha)
        labels = np.broadcast_to(e[:, None], (B, T - 1))
        l_grl = softmax_cross_entropy(logits, labels)
        total = total + l_grl * config.lam_adv
        components["L_GRL"] = float(l_grl.data)

    components["L_total"] = float(total.data)
    return total, components


def _check_components(step, components):
    for name, val in components.items():
        if val is None:
            continue
        if not np.isfinite(val):
            raise TrainingAborted(step, name, val)
        if val > 1e6:
            raise TrainingAborted(step, name, val)


def _grad_norm(params):
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def _write_log(log_path, rows):
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in LOG_COLUMNS])


def rec_only(loss):
    """Log components of a step whose loss is one reconstruction term."""
    value = float(loss.data)
    return {"L_total": value, "L_rec": value, "L_KL": None, "L_GRL": None}


def fit(step_fn, opts, steps, norm_params, log_path=None):
    """The one training loop. `step_fn(step)` builds the step's graph and
    returns (loss Tensor, components dict); the gradient norm is taken over
    `norm_params`. Returns the log rows, also written to `log_path`."""
    rows = []
    for step in range(steps):
        for opt in opts:
            opt.zero_grad()
        loss, components = step_fn(step)
        _check_components(step, components)
        loss.backward()
        components["grad_norm"] = _grad_norm(norm_params)
        for opt in opts:
            opt.step()
        components["step"] = step
        rows.append(components)
        del loss    # free this step's tape before the next step builds its own
    if log_path is not None:
        _write_log(log_path, rows)
    return rows


def _optimizers(model, config):
    opts = [AdamW(model.fdm.params(), lr=config.lr_fdm, wd=config.wd_fdm)]
    if config.flags.gt_action:
        opts.append(AdamW(model.gtcond.params(), lr=config.lr_idm, wd=config.wd_idm))
    else:
        opts.append(AdamW(model.idm.params(), lr=config.lr_idm, wd=config.wd_idm))
        if config.flags.grl:
            opts.append(AdamW(model.disc.params(), lr=config.lr_disc))
    return opts


def train_scar(dataset, config, model=None, log_path=None):
    """Train one variant; returns (model, log rows). Pass the model that
    `pretrain_fdm` returned to start from a pretrained forward model."""
    if model is None:
        model = build_model(ModelConfig(**dataset_fields(dataset.spec)),
                            stream(config.seed, "model-init"),
                            with_gtcond=config.flags.gt_action)
    pool = _episode_pool(dataset, config)
    batch_rng = stream(config.seed, f"train:{config.variant}:batches")
    loss_rng = stream(config.seed, f"train:{config.variant}:noise")

    def step_fn(step):
        idx = batch_rng.integers(0, len(pool), config.batch_episodes)
        batch = _stack_batch(pool, idx, model.cfg.d_a_max)
        return total_loss(model, batch, config, loss_rng, step=step)

    rows = fit(step_fn, _optimizers(model, config), config.steps, model.params(), log_path)
    return model, rows


def pretrain_fdm(dataset, config, model=None, log_path=None):
    """Action-free pretraining: the forward model learns the flow with the
    conditioning path zeroed, so only unconditional dynamics are absorbed."""
    if model is None:
        model = build_model(ModelConfig(**dataset_fields(dataset.spec)),
                            stream(config.seed, "model-init"))
    pool = list(dataset.episodes)
    opt = AdamW(model.fdm.params(), lr=config.lr_idm, wd=config.wd_fdm)
    batch_rng = stream(config.seed, "pretrain:batches")
    loss_rng = stream(config.seed, "pretrain:noise")
    cfg = model.cfg

    def step_fn(step):
        idx = batch_rng.integers(0, len(pool), config.batch_episodes)
        v, _, _ = _stack_batch(pool, idx, cfg.d_a_max)
        c_zero = Tensor(np.zeros((*v.shape[:-1], cfg.d_c), F32))
        loss = flow_loss(v, c_zero, model.fdm, loss_rng)
        return loss, rec_only(loss)

    rows = fit(step_fn, [opt], config.pretrain_steps, model.fdm.params(), log_path)
    return model, rows


def posterior_mean_targets(model, episodes):
    """Stop-gradient latent targets from the frozen inverse model: the
    posterior means of a list of equal-length episodes, from one tape-free
    stacked pass, (n, T-1, d_z)."""
    with no_grad():
        post = idm_infer(np.stack([ep.x for ep in episodes]), model.idm)
    return post.mu.data.copy()


def train_a2l(model, dataset, config, pointwise=False, ft=False, log_path=None):
    """Fit the action-to-latent controller against stop-gradient posterior
    means. The FT variant additionally fine-tunes the forward model through
    a flow-matching term conditioned on the predicted latents; the inverse
    model is never updated (checksum-stable)."""
    if model.a2l is None:
        raise ValueError("model was built without an A2L head")
    cfg = model.cfg
    pool = dataset.by_embodiment(dataset.target_e)
    if not pool:
        raise ValueError("no target-embodiment episodes for A2L training")
    targets = posterior_mean_targets(model, pool)
    params = model.a2l.params()
    opts = [AdamW(params, lr=LR_A2L)]
    if ft:
        opts.append(AdamW(model.fdm.params(), lr=config.lr_fdm, wd=config.wd_fdm))
    batch_rng = stream(config.seed, "a2l:batches")
    loss_rng = stream(config.seed, "a2l:noise")
    batch_n = min(config.batch_episodes, len(pool))

    def step_fn(step):
        idx = batch_rng.integers(0, len(pool), batch_n)
        v, a, _ = _stack_batch(pool, idx, cfg.d_a_max)
        z_hat = a2l_predict(a, v[:, : cfg.f_hist], model.a2l, pointwise=pointwise)
        loss = ((z_hat - Tensor(targets[idx])) ** 2).mean()
        if ft:
            loss = loss + flow_loss(v, cond_sequence(z_hat, model.idm), model.fdm, loss_rng)
        return loss, rec_only(loss)

    rows = fit(step_fn, opts, A2L_STEPS, params, log_path)
    return model, rows


def model_checksum(model):
    return checksum(model.numpy_params())
