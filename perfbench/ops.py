"""Op timings, tape sizes and memory peaks at the shapes of the workloads.

Run untraced at the end of the traced run. Shapes follow the pinned
train-pipeline config: batch 16, T = 17, FDM width 128, d_c = 16.
"""

import statistics
import time
import tracemalloc

import numpy as np

from latact import training
from latact.autodiff import Tensor, concat, layer_norm
from latact.models import (ModelConfig, build_model, cond_sequence, fdm_flow_predict,
                           idm_infer, pad_actions, rollout_generate)
from latact.optim import AdamW
from latact.rng import stream

F32 = np.float32
B, T, H = 16, 17, 128


def _median_us(fn, min_reps=20, budget_s=0.15):
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _fwd_bwd(make, parents):
    """(forward µs, backward-closure µs) of the node `make()` returns."""
    fwd = _median_us(make)
    out = make()
    g = np.ones_like(out.data)

    def bwd():
        for p in parents:
            p.grad = None
        out._backward(g)
    return fwd, _median_us(bwd)


def op_timings(rng):
    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(F32), requires_grad=True)

    h, w = leaf(B, T, H), leaf(H, H)
    bg = leaf(B, T, 2 * H)
    ones, zeros = Tensor(np.ones(H, F32)), Tensor(np.zeros(H, F32))
    conv_parts = [leaf(B, 1, 16) for _ in range(T)]
    out = {}
    # FDM hidden activation, AdaLN beta/gamma split, hidden matmul and norm,
    # and the causal temporal conv's concat of per-token outputs
    for name, make, parents in (
            ("gelu", h.gelu, [h]),
            ("slice", lambda: bg[..., :H], [bg]),
            ("matmul", lambda: h @ w, [h, w]),
            ("layer_norm", lambda: layer_norm(h, ones, zeros), [h]),
            ("concat", lambda: concat(conv_parts, axis=-2), conv_parts)):
        fwd, bwd = _fwd_bwd(make, parents)
        out[f"autodiff.{name}_fwd_us"] = fwd
        out[f"autodiff.{name}_bwd_us"] = bwd
    del out["autodiff.slice_fwd_us"], out["autodiff.concat_fwd_us"]
    return out


def _reachable(roots):
    seen, todo = set(), list(roots)
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        todo.extend(t._parents)
    return seen


def model_figures(dataset, seed):
    """Tape sizes, one Euler step, and tracemalloc peaks of a SCAR step and
    a rollout, on a default-config model as `latact train` builds it."""
    cfg = ModelConfig(d_v=dataset.spec.d_x, n_embodiments=dataset.spec.n_embodiments)
    model = build_model(cfg, stream(seed, "model-init"))
    train_cfg = training.make_config("scar-kl-grl", seed=seed)
    pool = [dataset.episodes[i]
            for i in stream(seed, "perfbench-batch").integers(0, len(dataset.episodes), B)]
    batch = (np.stack([ep.x for ep in pool]).astype(F32),
             np.stack([pad_actions(ep.a, cfg.d_a_max) for ep in pool]),
             np.array([ep.e for ep in pool]))
    opts = [AdamW(model.fdm.params(), lr=train_cfg.lr_fdm, wd=train_cfg.wd_fdm),
            AdamW(model.idm.params(), lr=train_cfg.lr_idm, wd=train_cfg.wd_idm),
            AdamW(model.disc.params(), lr=train_cfg.lr_disc)]
    loss_rng = stream(seed, "perfbench-noise")
    out = {}

    total, _ = training.total_loss(model, batch, train_cfg, loss_rng)
    out["autodiff.tape_nodes.train_step"] = len(_reachable([total]))
    del total

    tracemalloc.start()
    for opt in opts:
        opt.zero_grad()
    total, _ = training.total_loss(model, batch, train_cfg, loss_rng)
    total.backward()
    for opt in opts:
        opt.step()
    out["training.scar_step_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    del total

    ep = dataset.episodes[0]
    c_seq = cond_sequence(Tensor(idm_infer(ep.x.astype(F32), model.idm).mu.data), model.idm)
    context = ep.x[: cfg.f_hist].astype(F32)
    cur = ep.x.astype(F32)
    tau_seq = np.full(T, 0.5, F32)
    tau_seq[: cfg.f_hist] = 0.0

    def euler_step():
        return fdm_flow_predict(cur, tau_seq, c_seq, model.fdm, v_ctx=context[-1])

    before = _reachable([c_seq, *model.fdm.params().values()])
    out["autodiff.tape_nodes.euler_step"] = len(_reachable([euler_step()]) - before)
    out["models.euler_step_ms"] = _median_us(euler_step) / 1e3

    tracemalloc.start()
    rollout_generate(context, c_seq, model.fdm, stream(seed, "perfbench-rollout"))
    out["models.rollout_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return out
