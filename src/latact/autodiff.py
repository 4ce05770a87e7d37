"""Reverse-mode automatic differentiation on dense float32 tensors.

Tape-based: every operation records its parents and one gradient function
per parent, from the gradient of its output to that parent's. ``Tensor``
alone applies them, accumulating into each parent that requires grad, and
``Tensor.backward()`` runs a topological sweep. First-order only, rebuilt
per forward pass. Under ``no_grad()`` nothing is recorded.
"""

from contextlib import contextmanager
from itertools import accumulate

import numpy as np

DTYPE = np.float32

# When True every op checks its output for NaN/inf and raises NonFiniteError
# naming the op that produced it. Enabled by gradcheck.
CHECK_FINITE = False

# When False (inside `no_grad()`) ops record no parents and no backward
# step, so each intermediate is freed as soon as nothing else holds it.
GRAD_ENABLED = True

# Absolute floor of gradcheck's denominator: a near-zero gradient is judged
# by its absolute error, which central-difference truncation dominates.
GRADCHECK_FLOOR = 1e-3


@contextmanager
def engine_flags(**values):
    """Set the module flags named (DTYPE, CHECK_FINITE, GRAD_ENABLED) for
    the block and restore their previous values on exit, error or not."""
    g = globals()
    saved = {name: g[name] for name in values}
    g.update(values)
    try:
        yield
    finally:
        g.update(saved)


def no_grad():
    """Context in which no op builds a tape: for forward-only passes."""
    return engine_flags(GRAD_ENABLED=False)


class NonFiniteError(FloatingPointError):
    """An operation produced a NaN or infinite value."""

    def __init__(self, op_name):
        super().__init__(f"non-finite value produced by op '{op_name}'")
        self.op_name = op_name


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    ndim_extra = grad.ndim - len(shape)
    if ndim_extra > 0:
        grad = grad.sum(axis=tuple(range(ndim_extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(idx):
    """True if `idx` selects each element at most once: ints (not bools),
    slices, Ellipsis and None, alone or in a tuple."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


class Tensor:
    """Dense array participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), op="leaf", _grads=()):
        self.data = np.asarray(data, dtype=DTYPE)  # module DTYPE read at creation time
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        if GRAD_ENABLED and _parents:
            self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
            self._parents = _parents

            def backward(g):    # the one site that applies gradients
                for p, f in zip(_parents, _grads):
                    if p.requires_grad:
                        p._accum(f(g))
            self._backward = backward
        if CHECK_FINITE and not np.all(np.isfinite(self.data)):
            raise NonFiniteError(op)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def _accum(self, g):
        """Add gradient `g` into `self.grad`. A C-contiguous, writeable first
        gradient of this dtype is kept as it is, so parents may share one
        array and no backward step may write into the gradient it is handed;
        anything else (the stride-0 views of `sum`, the slices of `concat`)
        is copied in `astype`'s memory order, on which a later matmul's bits
        depend."""
        if self.grad is None:
            keep = g.dtype == self.data.dtype and g.flags.c_contiguous and g.flags.writeable
            self.grad = g if keep else g.astype(self.data.dtype)
        else:
            self.grad = self.grad + g.astype(self.data.dtype, copy=False)

    def backward(self, grad=None):
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        # Post-order walk with an explicit stack: the same order as a recursive
        # depth-first visit of parents in order, without Python's recursion
        # limit and without a self-referencing closure that would keep the
        # tape alive in a reference cycle.
        topo, seen = [], {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        self._accum(np.asarray(grad, dtype=self.data.dtype))
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # ---- arithmetic ----

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(self.data + other.data, _parents=(self, other), op="add",
                      _grads=(lambda g: _unbroadcast(g, self.shape),
                              lambda g: _unbroadcast(g, other.shape)))

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(self.data * other.data, _parents=(self, other), op="mul",
                      _grads=(lambda g: _unbroadcast(g * other.data, self.shape),
                              lambda g: _unbroadcast(g * self.data, other.shape)))

    def __neg__(self):
        return Tensor(-self.data, _parents=(self,), op="neg", _grads=(lambda g: -g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __pow__(self, p):
        assert isinstance(p, (int, float)), "only scalar exponents"
        return Tensor(self.data ** p, _parents=(self,), op="pow",
                      _grads=(lambda g: g * p * self.data ** (p - 1),))

    def __matmul__(self, other):
        """x @ W with W two-dimensional; x may carry leading batch axes."""
        other = as_tensor(other)
        assert other.data.ndim == 2, "right matmul operand must be 2-D"
        n = other.shape[0]
        return Tensor(self.data @ other.data, _parents=(self, other), op="matmul",
                      _grads=(lambda g: g @ other.data.T,
                              lambda g: self.data.reshape(-1, n).T @ g.reshape(-1, g.shape[-1])))

    # ---- shape ----

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), _parents=(self,), op="reshape",
                      _grads=(lambda g: g.reshape(self.shape),))

    def __getitem__(self, idx):
        def grad(g):
            full = np.zeros(self.shape, dtype=DTYPE)
            if _is_basic_index(idx):
                full[idx] = g
            else:
                np.add.at(full, idx, g)  # repeated fancy indices accumulate
            return full
        return Tensor(self.data[idx], _parents=(self,), op="slice", _grads=(grad,))

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        keep = axis is None or keepdims
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), op="sum",
                      _grads=(lambda g: np.broadcast_to(g if keep else np.expand_dims(g, axis),
                                                        self.shape),))

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---- elementwise ----

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, _parents=(self,), op="exp", _grads=(lambda g: g * y,))

    def log(self):
        return Tensor(np.log(self.data), _parents=(self,), op="log",
                      _grads=(lambda g: g / self.data,))

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, _parents=(self,), op="tanh", _grads=(lambda g: g * (1.0 - y ** 2),))

    def gelu(self):
        """tanh-approximation GELU (see `gelu_forward`, `gelu_backward`)."""
        x = self.data
        t, y = gelu_forward(x)
        return Tensor(y, _parents=(self,), op="gelu", _grads=(lambda g: gelu_backward(x, t, g),))


# ---- free functions ----

def as_tensor(x):
    """`x` if it is a Tensor, else a constant Tensor of its values."""
    return x if isinstance(x, Tensor) else Tensor(x)


GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def gelu_forward(x):
    """tanh-approximation GELU of a numpy array: (t, y) with t the tanh term
    that `gelu_backward` reads and y the output. Works in place where it
    can, in the operation order of the plain expressions, so the bits are
    theirs without their full-size temporaries."""
    t = x * x
    t *= x                                  # float32 `x ** 3` is slow and value-dependent
    t *= 0.044715
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    y = np.add(1.0, t)
    y *= 0.5 * x
    return t, y


def gelu_backward(x, t, g):
    """Gradient through `gelu_forward` at x, given its tanh term t and the
    upstream gradient g; works in place like the forward."""
    d = t * t
    np.subtract(1.0, d, out=d)
    buf = x * 0.5
    d *= buf                                # 0.5 x (1 - t^2)
    np.multiply(x, x, out=buf)
    buf *= 3 * 0.044715
    buf += 1.0
    buf *= GELU_C
    d *= buf                                # times c (1 + 3 0.044715 x^2)
    np.add(t, 1.0, out=buf)
    buf *= 0.5
    d += buf                                # plus 0.5 (1 + t)
    d *= g
    return d


def concat(tensors, axis=0):
    bounds = list(accumulate((t.shape[axis] for t in tensors), initial=0))
    lead = (slice(None),) * (axis % tensors[0].data.ndim)
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  _parents=tuple(tensors), op="concat",
                  _grads=[lambda g, part=lead + (slice(a, b),): g[part]
                          for a, b in zip(bounds, bounds[1:])])


def grl(x, alpha):
    """Gradient reversal: identity forward, backward scales incoming grad by -alpha."""
    if alpha < 0:
        raise ValueError("grl strength must be >= 0")
    return Tensor(x.data, _parents=(x,), op="grl", _grads=(lambda g: -alpha * g,))


def reparam_sample(mu, sigma, eps):
    """mu + sigma * eps, with gradient flowing to mu and sigma only."""
    eps = np.asarray(eps, dtype=DTYPE)
    if eps.shape != mu.shape or sigma.shape != mu.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}, eps {eps.shape}")
    return mu + sigma * Tensor(eps)


def kl_diag_gaussian(mu, sigma):
    """KL(N(mu, diag(sigma^2)) || N(0, I)) = 1/2 sum(mu^2 + sigma^2 - 1 - log sigma^2)."""
    if mu.shape != sigma.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}")
    bad = np.flatnonzero(sigma.data <= 0)
    if bad.size:
        raise ValueError(f"sigma must be strictly positive; offending flat index {int(bad[0])}")
    s2 = sigma * sigma
    return ((mu * mu + s2 - 1.0 - s2.log()).sum()) * 0.5


def log_softmax(logits):
    """log softmax over the last axis of a numpy array."""
    # the row max one class column at a time: exact in any order, NaN-propagating
    # as `.max()` is, and several times faster than numpy's reduce over a last
    # axis this short
    m = logits[..., :1]
    for c in range(1, logits.shape[-1]):
        m = np.maximum(m, logits[..., c:c + 1])
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits, labels):
    """-log softmax(logits)[label]; mean over leading axes if labels is an array.

    `logits`: (..., n_classes); `labels`: int or int array matching the
    leading shape.
    """
    labels = np.asarray(labels)
    n_classes = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    flat_logits = logits.data.reshape(-1, n_classes)
    flat_labels = labels.reshape(-1)
    if flat_labels.shape[0] != flat_logits.shape[0]:
        raise ValueError("labels shape does not match logits leading shape")
    logp = log_softmax(flat_logits)
    n = flat_labels.shape[0]
    ce = -logp[np.arange(n), flat_labels].mean()

    def logits_grad(g):
        p = np.exp(logp)
        p[np.arange(n), flat_labels] -= 1.0
        return (g * p / n).reshape(logits.shape)
    return Tensor(ce, _parents=(logits,), op="softmax_cross_entropy", _grads=(logits_grad,))


def _normalize(x):
    """(xhat, inv): `x` normalized over its last axis, and 1 / its std."""
    d = x - x.mean(axis=-1, keepdims=True)
    # numpy's `var` in its own operation order, without taking `x - mean` again
    var = (d * d).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    return d * inv, inv


def _normalize_grad(gx, xhat, inv):
    """Gradient through `_normalize` given the gradient `gx` of its xhat."""
    dg = gx.mean(axis=-1, keepdims=True)
    dgx = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - dg - xhat * dgx)


def layer_norm(h, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then gain, bias."""
    xhat, inv = _normalize(h.data)
    return Tensor(xhat * gain.data + bias.data, _parents=(h, gain, bias), op="layer_norm",
                  _grads=(lambda g: _normalize_grad(g * gain.data, xhat, inv),
                          lambda g: _unbroadcast(g * xhat, gain.shape),
                          lambda g: _unbroadcast(g, bias.shape)))


def adaln(bg, h):
    """(1 + gamma) * LN(h) + beta, with (beta, gamma) the two halves of the
    last axis of `bg` (shape (..., 2d) for h of shape (..., d)): adaptive
    layer norm as one node. `bg` is the first parent, so a backward sweep
    reaches the modulation before the hidden path."""
    d = h.shape[-1]
    xhat, inv = _normalize(h.data)
    gamma1 = bg.data[..., d:] + 1.0
    out = gamma1 * xhat
    out += bg.data[..., :d]
    return Tensor(out, _parents=(bg, h), op="adaln",
                  _grads=(lambda g: np.concatenate([g, g * xhat], axis=-1),
                          lambda g: _normalize_grad(g * gamma1, xhat, inv)))


def gradcheck(f, x, eps=1e-3):
    """Compare analytic gradient of scalar f at x against central differences.

    Returns the max over coordinates of
    |analytic - numeric| / max(|analytic| + |numeric|, GRADCHECK_FLOOR).
    Runs with gradients enabled, also when called inside `no_grad()`.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    # Evaluate in float64 so the check isolates backward-formula errors from
    # float32 rounding; the training engine itself stays float32.
    with engine_flags(DTYPE=np.float64, CHECK_FINITE=True, GRAD_ENABLED=True):
        xt = Tensor(x.data.astype(np.float64), requires_grad=True)
        out = f(xt)
        out.backward()
        analytic = xt.grad.reshape(-1).astype(np.float64)
        base = x.data.astype(np.float64).reshape(-1)
        numeric = np.zeros_like(analytic)
        for i in range(base.size):
            step = eps * (1.0 + abs(float(base[i])))
            for sign in (+1.0, -1.0):
                v = base.copy()
                v[i] += sign * step
                val = float(f(Tensor(v.reshape(x.shape))).data)
                numeric[i] += sign * val
            numeric[i] /= 2.0 * step
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), GRADCHECK_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())
