import numpy as np
import pytest

from latact.autodiff import Tensor
from latact.optim import AdamW


def _one_step(p, grad, lr, wd=0.0):
    opt = AdamW({"p": p}, lr=lr, wd=wd)
    p.grad = np.asarray(grad, np.float32)
    opt.step()
    return opt


def test_zero_grad_zero_wd_leaves_param():
    p = Tensor([1.0, -2.0])
    before = p.data.copy()
    _one_step(p, np.zeros(2), lr=0.1, wd=0.0)
    np.testing.assert_array_equal(p.data, before)


def test_single_step_matches_hand_computed_adam():
    # One step with beta=(0.9, 0.999): mhat = g, vhat = g^2,
    # delta = -lr * g / (|g| + eps) ~= -lr * sign(g).
    lr, g = 0.01, 0.3
    p = Tensor([1.0])
    _one_step(p, np.array([g]), lr=lr)
    expected = 1.0 - lr * g / (abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-6)


def test_decoupled_weight_decay_only():
    # wd=5e-2 and zero grad: param shrinks by exactly (1 - lr*wd).
    lr, wd = 0.1, 5e-2
    p = Tensor([2.0, -4.0])
    _one_step(p, np.zeros(2), lr=lr, wd=wd)
    np.testing.assert_allclose(p.data, np.array([2.0, -4.0], np.float32) * (1 - lr * wd), rtol=1e-6)


def test_lr_zero_is_identity():
    p = Tensor([1.0, 2.0, 3.0])
    before = p.data.copy()
    _one_step(p, np.array([1.0, -1.0, 0.5]), lr=0.0, wd=0.1)
    np.testing.assert_array_equal(p.data, before)


def test_step_counter_increases_and_shapes_checked():
    p = Tensor(np.zeros((2, 2)))
    opt = AdamW({"p": p}, lr=0.1)
    for _ in range(2):
        p.grad = np.ones((2, 2), np.float32)
        opt.step()
    assert opt.steps["p"] == 2
    p.grad = np.ones(3, np.float32)
    with pytest.raises(ValueError, match="grad shape"):
        opt.step()
    opt.lr = -0.1
    p.grad = np.ones((2, 2), np.float32)
    with pytest.raises(ValueError, match="lr"):
        opt.step()


def test_matches_per_parameter_reference_with_skipped_grads():
    # inline copy of the per-parameter update AdamW folded in: one moment
    # pair and one step count per parameter, applied only when it has a grad
    def reference_step(data, grad, state, lr, wd):
        b1, b2 = 0.9, 0.999
        g = np.asarray(grad, dtype=np.float32)
        state["step"] += 1
        t = state["step"]
        state["m"] = b1 * state["m"] + (1 - b1) * g
        state["v"] = b2 * state["v"] + (1 - b2) * g * g
        mhat = state["m"] / (1 - b1 ** t)
        vhat = state["v"] / (1 - b2 ** t)
        data -= np.float32(lr * wd) * data
        data -= np.float32(lr) * (mhat / (np.sqrt(vhat) + 1e-8)).astype(np.float32)

    rng = np.random.default_rng(0)
    init = {"w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=4).astype(np.float32)}
    params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    ref = {k: v.copy() for k, v in init.items()}
    states = {k: {"m": np.zeros_like(v), "v": np.zeros_like(v), "step": 0}
              for k, v in init.items()}
    lr, wd = 0.05, 0.1
    opt = AdamW(params, lr=lr, wd=wd)
    for step in range(5):
        opt.zero_grad()
        grads = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in init.items()}
        if step in (1, 3):
            del grads["b"]    # "b" takes no part in this step's loss
        for k, g in grads.items():
            params[k].grad = g
            reference_step(ref[k], g, states[k], lr, wd)
        opt.step()
        for k in init:
            np.testing.assert_array_equal(params[k].data, ref[k], err_msg=f"{k} step {step}")
    assert opt.steps == {"w": 5, "b": 3}


def test_optimizer_wrapper_reduces_quadratic():
    w = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = AdamW({"w": w}, lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
    assert np.abs(w.data).max() < 1e-2
