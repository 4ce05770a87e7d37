"""AdamW: Adam update with decoupled weight decay."""

import numpy as np

from .autodiff import DTYPE, Tensor

BETAS = (0.9, 0.999)    # moment decay rates
EPS = 1e-8              # denominator floor


class AdamState:
    """Per-parameter first/second moment estimates and a step counter."""

    def __init__(self, param):
        shape = param.shape if isinstance(param, Tensor) else np.shape(param)
        self.m = np.zeros(shape, dtype=DTYPE)
        self.v = np.zeros(shape, dtype=DTYPE)
        self.step = 0


def adamw_step(param, grad, state, lr, wd=0.0):
    """One AdamW step, in place on `param.data`.

    Decoupled decay: param <- param - lr*wd*param, applied before the Adam
    delta. lr=0 leaves the parameter untouched.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    b1, b2 = BETAS
    g = np.asarray(grad, dtype=DTYPE)
    if g.shape != state.m.shape:
        raise ValueError(f"grad shape {g.shape} != state shape {state.m.shape}")
    state.step += 1
    t = state.step
    state.m = b1 * state.m + (1 - b1) * g
    state.v = b2 * state.v + (1 - b2) * g * g
    mhat = state.m / (1 - b1 ** t)
    vhat = state.v / (1 - b2 ** t)
    data = param.data if isinstance(param, Tensor) else param
    data -= DTYPE(lr * wd) * data
    data -= DTYPE(lr) * (mhat / (np.sqrt(vhat) + EPS)).astype(DTYPE)
    return param, state


class AdamW:
    """Convenience wrapper driving adamw_step over a named parameter dict."""

    def __init__(self, params, lr, wd=0.0):
        self.params = dict(params)
        self.lr = lr
        self.wd = wd
        self.states = {k: AdamState(p) for k, p in self.params.items()}

    def step(self):
        for k, p in self.params.items():
            if p.grad is None:
                continue
            adamw_step(p, p.grad, self.states[k], self.lr, self.wd)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
