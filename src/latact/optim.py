"""AdamW: Adam update with decoupled weight decay."""

import numpy as np

from .autodiff import DTYPE

BETAS = (0.9, 0.999)    # moment decay rates
EPS = 1e-8              # denominator floor


class AdamW:
    """AdamW over a named parameter dict, with first/second moment
    estimates and a step count per parameter."""

    def __init__(self, params, lr, wd=0.0):
        self.params = dict(params)
        self.lr = lr
        self.wd = wd
        self.m = {k: np.zeros(p.shape, dtype=DTYPE) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape, dtype=DTYPE) for k, p in self.params.items()}
        self.steps = dict.fromkeys(self.params, 0)

    def step(self):
        """One AdamW step, in place on each parameter's data. A parameter
        whose grad is None is skipped and keeps its step count.

        Decoupled decay: param <- param - lr*wd*param, applied before the Adam
        delta. lr=0 leaves the parameters untouched.
        """
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        b1, b2 = BETAS
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = np.asarray(p.grad, dtype=DTYPE)
            if g.shape != self.m[k].shape:
                raise ValueError(f"{k}: grad shape {g.shape} != param shape {self.m[k].shape}")
            self.steps[k] += 1
            t = self.steps[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** t)
            vhat = self.v[k] / (1 - b2 ** t)
            p.data -= DTYPE(self.lr * self.wd) * p.data
            p.data -= DTYPE(self.lr) * (mhat / (np.sqrt(vhat) + EPS))

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
