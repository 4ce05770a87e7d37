import numpy as np
import pytest

from latact import fitting
from latact.autodiff import Tensor, softmax_cross_entropy
from latact.fitting import fit_logistic_probe, fit_mlp
from latact.nn import Mlp
from latact.optim import AdamW
from latact.rng import stream
from latact.training import TrainingAborted

F32 = np.float32


def _data(n=300, d_in=3, d_out=2):
    rng = stream(0, "test-fitting")
    x = rng.normal(size=(n, d_in)).astype(F32)
    return x, np.tanh(x @ rng.normal(size=(d_in, d_out))).astype(F32)


def _mlp_own_loop(x, y, steps, seed):
    # fit_mlp as it was before it ran through training.fit
    rng = stream(seed, "fit-mlp")
    mlp = Mlp([x.shape[1], 32, 32, y.shape[1]], rng)
    opt = AdamW(mlp.params(), lr=1e-2)
    for _ in range(steps):
        idx = rng.integers(0, len(x), min(256, len(x)))
        opt.zero_grad()
        loss = ((mlp(Tensor(x[idx])) - Tensor(y[idx])) ** 2).mean()
        loss.backward()
        opt.step()
    return mlp(Tensor(x)).data


def _probe_own_loop(z, labels, n_classes, steps, seed):
    # fit_logistic_probe as it was before it ran through training.fit
    rng = stream(seed, "fit-probe")
    w = Tensor(rng.normal(0, 0.01, (z.shape[1], n_classes)).astype(F32), requires_grad=True)
    b = Tensor(np.zeros(n_classes, F32), requires_grad=True)
    opt = AdamW({"w": w, "b": b}, lr=5e-2)
    for _ in range(steps):
        idx = rng.integers(0, len(z), min(512, len(z)))
        opt.zero_grad()
        softmax_cross_entropy(Tensor(z[idx]) @ w + b, labels[idx]).backward()
        opt.step()
    return z @ w.data + b.data, float(softmax_cross_entropy(Tensor(z) @ w + b, labels).data)


class TestFitMlp:
    def test_equals_its_own_loop_bit_for_bit(self):
        x, y = _data()
        np.testing.assert_array_equal(fit_mlp(x, y, steps=60, seed=3)(x),
                                      _mlp_own_loop(x, y, 60, 3))

    def test_nan_targets_abort_at_step_zero(self):
        x, y = _data()
        with pytest.raises(TrainingAborted, match="step 0: L_total = nan") as info:
            fit_mlp(x, np.full_like(y, np.nan), steps=5)
        assert info.value.step == 0

    def test_predict_builds_no_tape(self, monkeypatch):
        outputs = []

        class Recording(Mlp):
            def __call__(self, x):
                outputs.append(super().__call__(x))
                return outputs[-1]

        monkeypatch.setattr(fitting, "Mlp", Recording)
        x, y = _data()
        predict = fit_mlp(x, y, steps=2)
        assert all(out._parents for out in outputs)   # the training steps do
        predict(x)
        assert outputs[-1]._parents == ()
        assert not outputs[-1].requires_grad


class TestFitLogisticProbe:
    def test_equals_its_own_loop_bit_for_bit(self):
        rng = stream(1, "test-probe")
        z = rng.normal(size=(700, 3)).astype(F32)
        labels = rng.integers(0, 4, 700)
        predict, ce = fit_logistic_probe(z, labels, 4, steps=40, seed=2)
        logits, ce_own = _probe_own_loop(z, labels, 4, 40, 2)
        np.testing.assert_array_equal(predict(z), logits)
        assert ce == ce_own
