import csv

import numpy as np
import pytest

from latact import training
from latact.models import ModelConfig, a2l_predict, build_model, idm_infer
from latact.rng import stream
from latact.training import (
    TrainConfig,
    TrainingAborted,
    VARIANTS,
    _episode_pool,
    _stack_batch,
    make_config,
    model_checksum,
    posterior_mean_targets,
    pretrain_fdm,
    total_loss,
    train_a2l,
    train_scar,
)
from latact.worldgen import DGPSpec, generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(0, DGPSpec(T=9), m_target=4, source_count=4)


@pytest.fixture(scope="module")
def model(dataset):
    cfg = ModelConfig(d_v=dataset.spec.d_x)
    return build_model(cfg, stream(1, "test-train"), with_a2l=True, with_gtcond=True)


def _batch(dataset, model, n=4):
    return _stack_batch(dataset.episodes, list(range(n)), model.cfg.d_a_max)


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="scar-maximal")

    def test_contradictions_refused(self):
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(variant="scar-kl", beta=0.0, lam_adv=0.0)
        with pytest.raises(ValueError, match="beta"):
            TrainConfig(variant="shared-latent", beta=5e-4)
        with pytest.raises(ValueError, match="lam_adv"):
            TrainConfig(variant="scar-grl", beta=0.0, lam_adv=0.0)

    def test_make_config_consistent_for_all_variants(self):
        for variant in VARIANTS:
            cfg = make_config(variant)
            assert cfg.variant == variant
            assert (cfg.beta > 0) == cfg.flags.kl
            assert (cfg.lam_adv > 0) == cfg.flags.grl

    def test_paper_defaults_wired(self):
        cfg = make_config("scar-kl-grl")
        assert cfg.beta == 5e-4
        assert cfg.lam_adv == 5e-3
        assert cfg.alpha == 0.25
        assert cfg.lr_idm == 5e-5
        assert cfg.lr_fdm == 5e-6
        assert cfg.wd_idm == 1e-4
        assert cfg.wd_fdm == 5e-2


class TestTotalLoss:
    def test_shared_latent_is_rec_only(self, dataset, model):
        cfg = make_config("shared-latent")
        total, comps = total_loss(model, _batch(dataset, model), cfg, stream(2, "l"))
        assert comps["L_total"] == comps["L_rec"]
        assert comps["L_KL"] is None and comps["L_GRL"] is None

    def test_accounting_exact(self, dataset, model):
        cfg = make_config("scar-kl-grl")
        total, comps = total_loss(model, _batch(dataset, model), cfg, stream(3, "l"))
        expect = comps["L_rec"] + cfg.beta * comps["L_KL"] + cfg.lam_adv * comps["L_GRL"]
        assert comps["L_total"] == pytest.approx(expect, abs=1e-7)

    def test_doubling_beta_doubles_kl_contribution(self, dataset, model):
        batch = _batch(dataset, model)
        c1 = make_config("scar-kl", beta=5e-4)
        c2 = make_config("scar-kl", beta=1e-3)
        _, a = total_loss(model, batch, c1, stream(4, "l"))
        _, b = total_loss(model, batch, c2, stream(4, "l"))
        assert a["L_rec"] == b["L_rec"]
        assert a["L_KL"] == b["L_KL"]
        assert (b["L_total"] - b["L_rec"]) == pytest.approx(
            2 * (a["L_total"] - a["L_rec"]), rel=1e-5)

    def test_variant_gating(self, dataset, model):
        batch = _batch(dataset, model)
        _, kl_only = total_loss(model, batch, make_config("scar-kl"), stream(5, "l"))
        assert kl_only["L_GRL"] is None and kl_only["L_KL"] is not None
        _, grl_only = total_loss(model, batch, make_config("scar-grl"), stream(5, "l"))
        assert grl_only["L_KL"] is None and grl_only["L_GRL"] is not None

    def test_gt_action_variant_uses_action_conditioning(self, dataset, model):
        cfg = make_config("gt-action-baseline")
        total, comps = total_loss(model, _batch(dataset, model), cfg, stream(6, "l"))
        assert comps["L_KL"] is None and comps["L_GRL"] is None
        assert np.isfinite(comps["L_total"])


class TestEpisodePool:
    def test_target_only(self, dataset):
        pool = _episode_pool(dataset, make_config("target-only-latent"))
        assert len(pool) == 4
        assert all(ep.e == dataset.target_e for ep in pool)

    def test_full_pool(self, dataset):
        pool = _episode_pool(dataset, make_config("scar-kl-grl"))
        assert len(pool) == len(dataset.episodes)


class TestTrainScar:
    def test_deterministic_checksum(self, dataset):
        m1, _ = train_scar(dataset, make_config("scar-kl-grl", steps=20, seed=7))
        m2, _ = train_scar(dataset, make_config("scar-kl-grl", steps=20, seed=7))
        assert model_checksum(m1) == model_checksum(m2)

    def test_seed_changes_result(self, dataset):
        m1, _ = train_scar(dataset, make_config("scar-kl-grl", steps=5, seed=7))
        m2, _ = train_scar(dataset, make_config("scar-kl-grl", steps=5, seed=8))
        assert model_checksum(m1) != model_checksum(m2)

    def test_log_rows_and_accounting(self, dataset, tmp_path):
        log = tmp_path / "log.csv"
        _, rows = train_scar(dataset, make_config("scar-kl-grl", steps=10, seed=0),
                             log_path=log)
        assert len(rows) == 10
        for row in rows:
            expect = row["L_rec"] + 5e-4 * row["L_KL"] + 5e-3 * row["L_GRL"]
            assert row["L_total"] == pytest.approx(expect, abs=1e-6)
            assert row["grad_norm"] > 0
        with open(log) as fh:
            header = next(csv.reader(fh))
        assert header == ["step", "L_total", "L_rec", "L_KL", "L_GRL",
                          "grad_norm"]

    def test_nonfinite_abort_names_component(self, dataset):
        cfg = make_config("scar-kl-grl", steps=5, seed=0)
        from latact import training

        def poisoned(model, batch, config, rng, step=None):
            total, comps = total_loss(model, batch, config, rng)
            comps["L_KL"] = float("nan")
            return total, comps

        orig = training.total_loss
        training.total_loss = poisoned
        try:
            with pytest.raises(TrainingAborted, match="L_KL"):
                train_scar(dataset, cfg)
        finally:
            training.total_loss = orig

    def test_gt_action_run(self, dataset):
        m, rows = train_scar(dataset, make_config("gt-action-baseline", steps=5, seed=0))
        assert m.gtcond is not None
        assert all(np.isfinite(r["L_total"]) for r in rows)

    def test_pretrained_init_loads(self, dataset):
        mp, _ = pretrain_fdm(dataset, make_config("shared-latent", pretrain_steps=5, seed=0))
        m, _ = train_scar(dataset, make_config("scar-kl-grl", steps=5, seed=0), model=mp)
        assert np.isfinite(list(m.fdm.params().values())[0].data).all()


class TestPretrain:
    def test_loss_decreases_in_moving_average(self, dataset):
        _, rows = pretrain_fdm(
            dataset, make_config("shared-latent", pretrain_steps=300, seed=0,
                                 lr_idm=1e-3))
        losses = np.array([r["L_rec"] for r in rows])
        k = 100
        head = losses[:k].mean()
        tail = losses[-k:].mean()
        assert tail < head
        # moving average is monotone up to small noise: check thirds ordering
        third = len(losses) // 3
        assert losses[2 * third:].mean() < losses[:third].mean()


class TestA2l:
    def test_targets_are_per_episode_posterior_means(self, dataset, model):
        pool = dataset.episodes[:5]
        got = posterior_mean_targets(model, pool)
        assert got.shape == (5, dataset.spec.T - 1, model.cfg.d_z)
        for row, ep in zip(got, pool):
            np.testing.assert_array_equal(row, idm_infer(ep.x.astype(np.float32), model.idm).mu.data)

    def test_idm_frozen_and_loss_drops(self, dataset, model, monkeypatch):
        monkeypatch.setattr(training, "A2L_STEPS", 60)
        before = {k: t.data.copy() for k, t in model.idm.params().items()}
        _, rows = train_a2l(model, dataset, make_config("shared-latent", seed=0))
        for k, t in model.idm.params().items():
            np.testing.assert_array_equal(before[k], t.data)
        assert rows[-1]["L_total"] < rows[0]["L_total"]

    def test_ft_updates_fdm_never_idm(self, dataset, monkeypatch):
        monkeypatch.setattr(training, "A2L_STEPS", 5)
        cfg_m = ModelConfig(d_v=dataset.spec.d_x)
        m = build_model(cfg_m, stream(2, "ft"), with_a2l=True)
        idm_before = {k: t.data.copy() for k, t in m.idm.params().items()}
        fdm_before = {k: t.data.copy() for k, t in m.fdm.params().items()}
        train_a2l(m, dataset, make_config("shared-latent", seed=0, lr_fdm=1e-3), ft=True)
        for k, t in m.idm.params().items():
            np.testing.assert_array_equal(idm_before[k], t.data)
        changed = any(not np.array_equal(fdm_before[k], t.data)
                      for k, t in m.fdm.params().items())
        assert changed

    def test_first_loss_matches_per_episode_mean(self, dataset, monkeypatch):
        monkeypatch.setattr(training, "A2L_STEPS", 1)
        m = build_model(ModelConfig(d_v=dataset.spec.d_x), stream(5, "a2l-ref"),
                        with_a2l=True)
        config = make_config("shared-latent", seed=0)
        pool = [ep for ep in dataset.episodes if ep.e == dataset.target_e]
        batch_n = min(config.batch_episodes, len(pool))
        idx = stream(0, "a2l:batches").integers(0, len(pool), batch_n)
        f_hist = m.cfg.f_hist
        ref = np.mean([
            ((a2l_predict(pool[i].a, pool[i].x[:f_hist], m.a2l).data.astype(np.float64)
              - posterior_mean_targets(m, [pool[i]])[0]) ** 2).mean() for i in idx])
        _, rows = train_a2l(m, dataset, config)
        assert rows[0]["L_total"] == pytest.approx(ref, rel=1e-6)

    def test_pointwise_variant_runs(self, dataset, monkeypatch):
        monkeypatch.setattr(training, "A2L_STEPS", 5)
        cfg_m = ModelConfig(d_v=dataset.spec.d_x)
        m = build_model(cfg_m, stream(3, "pt"), with_a2l=True)
        _, rows = train_a2l(m, dataset, make_config("shared-latent", seed=0), pointwise=True)
        assert np.isfinite(rows[-1]["L_total"])

    def test_requires_a2l_head(self, dataset):
        m = build_model(ModelConfig(d_v=dataset.spec.d_x), stream(4, "no-head"))
        with pytest.raises(ValueError):
            train_a2l(m, dataset, make_config("shared-latent"))
