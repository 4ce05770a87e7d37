import numpy as np
import pytest

from latact import evaluate as ev
from latact.autodiff import Tensor, no_grad, softmax_cross_entropy
from latact.evaluate import (
    LeakageReport,
    action_probe,
    eval_episodes,
    frames_from_obs_seq,
    image_metrics,
    latent_recovery_score,
    latents_with_ground_truth,
    leakage_eval,
    leakage_rollouts,
    run_transfer_eval,
    ssim_global,
    train_frame_classifier,
)
from latact.fitting import fit_mlp
from latact.models import ModelConfig, build_model
from latact.optim import AdamW
from latact.rng import stream
from latact.training import model_checksum
from latact.worldgen import DGPSpec, frame_from_obs, generate_dataset, generate_episode

F32 = np.float32


def _ssim_oracle(a, b):
    # direct per-pixel-formula computation, independently written
    a = np.asarray(a, np.float64).ravel()
    b = np.asarray(b, np.float64).ravel()
    c1, c2 = 0.01**2, 0.03**2
    ma, mb = a.mean(), b.mean()
    va = ((a - ma) ** 2).sum() / a.size
    vb = ((b - mb) ** 2).sum() / b.size
    cov = ((a - ma) * (b - mb)).sum() / a.size
    return ((2 * ma * mb + c1) * (2 * cov + c2)) / ((ma**2 + mb**2 + c1) * (va + vb + c2))


class TestImageMetrics:
    def test_identical_frames(self):
        f = stream(0, "img").uniform(0, 1, (5, 16, 16)).astype(F32)
        row = image_metrics(f, f)
        assert row.mse == 0.0
        assert row.psnr == 99.0
        assert row.ssim == pytest.approx(1.0, abs=1e-9)
        assert row.ssim_l == pytest.approx(1.0, abs=1e-9)

    def test_uniform_offset(self):
        f = stream(1, "img").uniform(0.2, 0.8, (3, 16, 16)).astype(np.float64)
        row = image_metrics(f + 0.1, f)
        assert row.mse == pytest.approx(0.01, rel=1e-6)
        assert row.psnr == pytest.approx(20.0, abs=1e-4)

    def test_psnr_identity(self):
        rng = stream(2, "img-psnr")
        for _ in range(10):
            a = rng.uniform(0, 1, (2, 8, 8))
            b = rng.uniform(0, 1, (2, 8, 8))
            row = image_metrics(a, b)
            assert row.psnr == pytest.approx(10 * np.log10(1 / row.mse), abs=1e-9)

    def test_ssim_against_oracle(self):
        rng = stream(3, "img-ssim")
        for _ in range(20):
            a = rng.uniform(0, 1, (16, 16))
            b = rng.uniform(0, 1, (16, 16))
            assert ssim_global(a, b) == pytest.approx(_ssim_oracle(a, b), abs=1e-12)

    def test_stack_matches_per_frame_calls(self):
        spec = DGPSpec()
        eps = eval_episodes(spec, 6, 4, 0)
        true = frame_from_obs(np.stack([ep.x for ep in eps]), spec)   # (4, T, n, n)
        pred = frame_from_obs(np.stack([3 * ep.x for ep in eps]), spec)
        pred[1, 2] = true[1, 2]
        got = ssim_global(pred, true)
        assert got.shape == true.shape[:2]
        for i, j in np.ndindex(*got.shape):
            assert got[i, j] == ssim_global(pred[i, j], true[i, j])
        row = image_metrics(pred[0], true[0])
        assert row.ssim == np.mean([ssim_global(p, t) for p, t in zip(pred[0], true[0])])
        assert row.ssim_l == ssim_global(pred[0, -1], true[0, -1])

    def test_constant_mean_prediction_low_ssim(self):
        rng = stream(4, "img-const")
        true = rng.uniform(0, 1, (16, 16))
        pred = np.full_like(true, true.mean())
        s = ssim_global(pred, true)
        assert s == pytest.approx(_ssim_oracle(pred, true), abs=1e-12)
        assert s < 0.2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            image_metrics(np.zeros((2, 8, 8)), np.zeros((2, 8, 9)))
        with pytest.raises(ValueError):
            image_metrics(np.zeros((0, 8, 8)), np.zeros((0, 8, 8)))


class TestLeakageReport:
    def test_reference_row_arithmetic(self):
        # reference probabilities 0.1020 / 0.8105: the margin reproduces the
        # published 0.7085 exactly; the share formula gives 0.8882 (the
        # published 0.8896 is a mean of per-source shares, which does not
        # commute with averaging the probabilities first — see the
        # acceptance suite for the strict check against the published row)
        rep = LeakageReport(source_prob=0.1020, target_prob=0.8105)
        assert round(rep.target_source, 4) == 0.7085
        assert round(rep.target_share, 4) == 0.8882

    def test_identities_hold_for_any_input(self):
        rng = stream(5, "leak-id")
        for _ in range(50):
            sp, tp = rng.uniform(1e-6, 1, 2)
            rep = LeakageReport(source_prob=sp, target_prob=tp)
            assert rep.target_share == tp / (tp + sp)
            assert rep.target_source == tp - sp


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(0, DGPSpec(), m_target=6, source_count=15)


@pytest.fixture(scope="module")
def model(dataset):
    cfg = ModelConfig(d_v=dataset.spec.d_x)
    return build_model(cfg, stream(9, "test-eval"), with_a2l=True)


@pytest.fixture(scope="module")
def gt_model(dataset):
    cfg = ModelConfig(d_v=dataset.spec.d_x)
    return build_model(cfg, stream(10, "test-eval-gt"), with_gtcond=True)


@pytest.fixture(scope="module")
def classifier(dataset):
    return train_frame_classifier(dataset, seed=0)


class TestFrameClassifier:
    def test_reaches_high_accuracy(self, classifier):
        clf, val_acc = classifier
        assert val_acc >= 0.9

    def test_sanity_on_ground_truth_frames(self, dataset, classifier):
        clf, _ = classifier
        spec = dataset.spec
        for e in spec.embodiments:
            eps = eval_episodes(spec, 1, 2, e)
            frames = frames_from_obs_seq(eps[0].x, spec)
            p = clf.probs(frames)
            assert p[:, e].mean() > 0.8

    def test_low_accuracy_refused(self):
        with pytest.raises(ValueError, match="0.9"):
            leakage_eval([], None, val_acc=0.5)


def _slice_patches(frames):
    """3x3 patches built one window offset at a time, independently of
    `FrameClassifier._patches`."""
    frames = np.asarray(frames, F32)
    n, H, W = frames.shape
    out = np.empty((n, H - 2, W - 2, 9), F32)
    for k in range(9):
        dy, dx = divmod(k, 3)
        out[..., k] = frames[:, dy:H - 2 + dy, dx:W - 2 + dx]
    return out.reshape(n, -1, 9)


def _taped_logits(clf, frames):
    h = (Tensor(_slice_patches(frames)) @ clf.w_conv + clf.b_conv).gelu()
    return h.reshape(h.shape[0], -1) @ clf.w_head + clf.b_head


def _taped_probs(clf, frames):
    with no_grad():
        logits = _taped_logits(clf, frames).data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _taped_frame_classifier(dataset, seed, steps, frames_of=frame_from_obs):
    """The frame classifier trained through the autodiff tape: one
    `softmax_cross_entropy(...).backward()` and AdamW step per batch, on the
    same frames, batches and initialisation as `train_frame_classifier`
    when that renders its frames with `frames_of`."""
    rng = stream(seed, "frame-clf")
    obs, labels = [], []
    for ep in dataset.episodes:
        picks = rng.choice(len(ep.x), size=min(4, len(ep.x)), replace=False)
        obs.append(ep.x[picks])
        labels += [ep.e] * len(picks)
    frames = frames_of(np.concatenate(obs), dataset.spec)
    labels = np.array(labels)
    perm = rng.permutation(len(frames))
    frames, labels = frames[perm], labels[perm]
    n_val = max(len(frames) // 5, 1)
    tr_f, tr_l = frames[n_val:], labels[n_val:]
    va_f, va_l = frames[:n_val], labels[:n_val]
    clf = ev.FrameClassifier(dataset.spec.n_embodiments, rng,
                             frame_size=dataset.spec.frame_size)
    opt = AdamW(clf.params(), lr=1e-2)
    for _ in range(steps):
        idx = rng.integers(0, len(tr_f), min(128, len(tr_f)))
        opt.zero_grad()
        softmax_cross_entropy(_taped_logits(clf, tr_f[idx]), tr_l[idx]).backward()
        opt.step()
    return clf, float((_taped_probs(clf, va_f).argmax(1) == va_l).mean())


def _dense_frames(obs, spec):
    """Rendered frames plus a positive offset: no 3x3 patch is all zero."""
    frames = frame_from_obs(obs, spec)
    return frames + stream(2, "clf-dense").uniform(0.1, 1.0, size=frames.shape).astype(F32)


def _frames_with_blanks(obs, spec):
    """Rendered frames with every third one all zero."""
    frames = frame_from_obs(obs, spec)
    frames[::3] = 0.0
    return frames


@pytest.mark.parametrize("m_target, source_count, frames_of", [
    (6, 15, frame_from_obs), (2, 4, frame_from_obs),
    (6, 15, _dense_frames), (6, 15, _frames_with_blanks),
], ids=["6-15", "2-4", "6-15-dense", "6-15-with-blanks"])
def test_closed_form_classifier_matches_taped_training(monkeypatch, m_target, source_count,
                                                       frames_of):
    # (6, 15): 164 training frames, batches of 128; (2, 4): 45 training
    # frames, so every batch is min(128, 45) rows. Dense frames put every
    # patch through the conv; blank frames give samples with no nonzero patch
    data = generate_dataset(0, DGPSpec(), m_target=m_target, source_count=source_count)
    monkeypatch.setattr(ev, "CLASSIFIER_STEPS", 50)
    monkeypatch.setattr(ev, "frame_from_obs", frames_of)
    grads = ev._classifier_grads

    def checked_grads(clf, patches, rows, where, labels):
        # the batch's patch buffer holds its rows at `where` and zeros elsewhere
        off = np.ones(len(patches), bool)
        off[where] = False
        assert not patches[off].view(np.uint32).any()
        np.testing.assert_array_equal(patches[where], rows)
        return grads(clf, patches, rows, where, labels)

    monkeypatch.setattr(ev, "_classifier_grads", checked_grads)
    clf, val_acc = train_frame_classifier(data, seed=0)
    ref, ref_acc = _taped_frame_classifier(data, seed=0, steps=50, frames_of=frames_of)
    assert val_acc == ref_acc
    for name, p in ref.params().items():
        np.testing.assert_array_equal(clf.params()[name].data, p.data, err_msg=name)
    frames = stream(1, "clf-probe").uniform(size=(20, 16, 16))
    np.testing.assert_array_equal(clf._patches(frames), _slice_patches(frames))
    np.testing.assert_array_equal(clf.probs(frames), _taped_probs(ref, frames))


def _mostly_zero(shape):
    frames = stream(3, "clf-sparse").uniform(size=shape).astype(F32)
    frames[stream(4, "clf-sparse").uniform(size=shape) < 0.97] = 0.0
    return frames


@pytest.mark.parametrize("make", [
    lambda shape: stream(5, "clf-uniform").uniform(size=shape),
    lambda shape: np.zeros(shape, F32),
    _mostly_zero,
    lambda shape: np.full(shape, -0.0, F32),
], ids=["uniform", "all-zero", "mostly-zero", "negative-zero"])
def test_sparse_forward_matches_taped_logits(classifier, make):
    # the conv on the nonzero patches plus one all-zero patch gives the
    # dense taped forward's logits bit for bit
    clf, _ = classifier
    frames = make((12, 16, 16))
    *_, logits = clf._forward(*clf._nonzero_patches(frames), len(frames))
    with no_grad():
        np.testing.assert_array_equal(logits, _taped_logits(clf, frames).data)


class TestLeakagePipeline:
    def test_ground_truth_rollout_baseline(self, dataset, classifier):
        clf, val_acc = classifier
        spec = dataset.spec
        # feed ground-truth *target* frames as if they were rollouts
        rollouts = []
        for e_s in (1, 2, 3):
            ep = eval_episodes(spec, 2, 1, 0)[0]
            rollouts.append((frames_from_obs_seq(ep.x[5:], spec), e_s, 0))
        rep = leakage_eval(rollouts, clf, val_acc)
        assert rep.target_prob > 0.8
        assert rep.source_prob < 0.1

    def test_rollout_plumbing(self, dataset, model, classifier):
        clf, val_acc = classifier
        rollouts = leakage_rollouts(model, dataset, seed=3, pairs_per_source=1)
        assert len(rollouts) == 3
        rep = leakage_eval(rollouts, clf, val_acc)
        assert 0.0 <= rep.source_prob <= 1.0
        assert 0.0 <= rep.target_prob <= 1.0


    def test_target_episodes_generated_once(self, dataset, model, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[1], kwargs["index"]))
            return generate_episode(*args, **kwargs)
        monkeypatch.setattr(ev, "generate_episode", counting)
        rollouts = leakage_rollouts(model, dataset, seed=3, pairs_per_source=2)
        assert len(rollouts) == 3 * 2
        # two target episodes shared by all sources, then two per source
        assert sorted(calls) == [(0, 30_000), (0, 30_001)] + [
            (e, 20_000 + i) for e in (1, 2, 3) for i in range(2)]

    @pytest.mark.parametrize("which", ["model", "gt_model"])
    def test_matches_per_pair_rollouts(self, dataset, which, request):
        model = request.getfixturevalue(which)
        spec, f_hist = dataset.spec, model.cfg.f_hist
        got = leakage_rollouts(model, dataset, seed=3, pairs_per_source=2)
        want = []
        for e_s in (1, 2, 3):
            for i in range(2):
                tgt = generate_episode(3, 0, spec.T, spec, index=30_000 + i)
                src = generate_episode(3, e_s, spec.T, spec, index=20_000 + i)
                pred = ev.rollout_episode(model, tgt, stream(3, f"leak:{e_s}:{i}"),
                                          c_seq=ev._conditioning(model, src))
                want.append((frame_from_obs(pred[f_hist:], spec), e_s, 0))
        assert len(got) == len(want)
        for (fg, *eg), (fw, *ew) in zip(got, want):
            assert eg == ew
            np.testing.assert_array_equal(fg, fw)

    def test_raw_action_model_ignores_its_idm(self, dataset):
        cfg = ModelConfig(d_v=dataset.spec.d_x)
        model = build_model(cfg, stream(10, "test-eval-gt"), with_gtcond=True)
        before = leakage_rollouts(model, dataset, seed=3, pairs_per_source=1)
        for t in model.idm.params().values():
            t.data += 1.0
        after = leakage_rollouts(model, dataset, seed=3, pairs_per_source=1)
        for (fb, *_), (fa, *_) in zip(before, after):
            np.testing.assert_array_equal(fa, fb)


class TestTransferEval:
    def test_structure_and_determinism(self, dataset, model):
        out1 = run_transfer_eval({"m": model}, dataset.spec, seed=4, n_episodes=2,
                                 target_e=dataset.target_e)
        out2 = run_transfer_eval({"m": model}, dataset.spec, seed=4, n_episodes=2,
                                 target_e=dataset.target_e)
        assert set(out1["m"]) == {"target", "transfer"}
        for task in ("target", "transfer"):
            cell = out1["m"][task]
            assert len(cell["rows"]) == 2
            assert cell["mse"] == out2["m"][task]["mse"]
            assert -1 <= cell["ssim"] <= 1

    def test_held_out_episodes_generated_once_per_task(self, dataset, model, monkeypatch):
        calls, frames, rollouts = [], [], []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_episode(*args, **kwargs)

        def counting_frames(*args):
            frames.append(args[0].shape[:-1])
            return frame_from_obs(*args)

        rollout_episode = ev.rollout_episode

        def counting_rollouts(m, episode, rng, **kwargs):
            rollouts.append(episode.x.shape[0])
            return rollout_episode(m, episode, rng, **kwargs)
        monkeypatch.setattr(ev, "generate_episode", counting)
        monkeypatch.setattr(ev, "frame_from_obs", counting_frames)
        monkeypatch.setattr(ev, "rollout_episode", counting_rollouts)
        n = 3
        out = ev.run_transfer_eval({"a": model, "b": model}, dataset.spec, seed=4,
                                   n_episodes=n, target_e=dataset.target_e)
        assert len(calls) == 2 * n
        # per task: the true futures as one stack, then each model's
        # predictions as one stack from one rollout call
        future = dataset.spec.T - model.cfg.f_hist
        assert frames == [(n, future)] * (2 * (1 + 2))
        assert rollouts == [n] * (2 * 2)
        for task in ("target", "transfer"):
            assert out["a"][task] == out["b"][task]

    @pytest.mark.parametrize("which", ["model", "gt_model"])
    @pytest.mark.parametrize("B", [1, 7])
    def test_stacked_rollout_matches_per_episode_calls(self, dataset, which, B, request):
        model = request.getfixturevalue(which)
        eps = eval_episodes(dataset.spec, 8, B, 0)
        got = ev.rollout_episode(model, ev._stacked(eps),
                                 [stream(8, f"rollout:{i}") for i in range(B)])
        assert got.shape == (B, *eps[0].x.shape)
        for i, ep in enumerate(eps):
            want = ev.rollout_episode(model, ep, stream(8, f"rollout:{i}"))
            np.testing.assert_array_equal(got[i], want)

    def test_row_count_default(self, dataset, model):
        out = run_transfer_eval({"m": model}, dataset.spec, seed=4, n_episodes=5,
                                target_e=dataset.target_e)
        assert len(out["m"]["target"]["rows"]) == 5


class TestActionProbe:
    def test_report_keys_and_frozen_model(self, dataset, model):
        before = model_checksum(model)
        rep = action_probe(model, dataset, seed=0, steps=100, n_eval=3)
        assert set(rep) == {"train_mse", "train_l1", "eval_mse", "eval_l1"}
        assert all(v >= 0 for v in rep.values())
        assert model_checksum(model) == before

    def test_ground_truth_channel_upper_bound(self, dataset):
        # probing from the true u (affine-invertible to a) -> near-zero MSE
        spec = dataset.spec
        eps = [ep for ep in dataset.episodes if ep.e == 0]
        u = np.vstack([ep.u for ep in eps]).astype(F32)
        a = np.vstack([ep.a for ep in eps]).astype(F32)
        predict = fit_mlp(u, a, steps=1500, seed=0)
        eval_ep = eval_episodes(spec, 5, 1, 0)[0]
        err = predict(eval_ep.u.astype(F32)) - eval_ep.a
        assert float((err ** 2).mean()) < 1e-3


class TestLatentRecovery:
    def test_z_equals_u(self):
        rng = stream(6, "rec")
        u = rng.uniform(-1, 1, (1200, 2)).astype(F32)
        e = rng.integers(0, 4, 1200)
        rep = latent_recovery_score(u.copy(), u, e, mlp_steps=400)
        assert rep["min_r2_forward"] > 0.99
        assert rep["min_r2_inverse"] > 0.99
        assert abs(rep["probe_accuracy"] - 0.25) < 0.1
        assert rep["mi_lower_bound"] < 0.05

    def test_z_equals_onehot_e(self):
        rng = stream(7, "rec-onehot")
        u = rng.uniform(-1, 1, (1200, 2)).astype(F32)
        e = rng.integers(0, 4, 1200)
        z = np.eye(4, dtype=F32)[e]
        rep = latent_recovery_score(z, u, e, mlp_steps=400)
        assert rep["min_r2_inverse"] < 0.1
        assert rep["probe_accuracy"] > 0.95
        assert rep["mi_lower_bound"] > 0.9 * np.log(4)

    def test_latents_with_ground_truth_shapes(self, dataset, model):
        z, u, e = latents_with_ground_truth(model, dataset, max_per_embodiment=2)
        assert z.shape[0] == u.shape[0] == e.shape[0]
        assert z.shape[1] == model.cfg.d_z
        assert u.shape[1] == dataset.spec.d_u
        assert set(e) == set(dataset.spec.embodiments)
