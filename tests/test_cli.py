import hashlib
import json
import re
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from latact import cli
from latact import evaluate as ev
from latact.cli import main, make_parser
from latact.models import A2LParams, a2l_predict, idm_infer
from latact.rng import stream
from latact.serialize import load_checkpoint, read_record, write_record
from latact.training import VARIANTS
from latact.worldgen import load_dataset

README = Path(__file__).resolve().parent.parent / "README.md"

CFG = """
[dgp]
T = 9
[data]
m_target = 4
source_count = 4
[train]
steps = 12
"""


def _run(command, argv, rc=0):
    """Run `latact` on argv, expect exit code `rc`, and check the manifest it
    wrote in --out: the command string perfbench expects, the seed, exactly
    the files on disk with their SHA-256, and started <= finished. Returns
    --out."""
    argv = [str(a) for a in argv]
    assert main(argv) == rc
    out = Path(argv[argv.index("--out") + 1])
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == command
    assert man["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0)
    assert man["files"] == sorted(man["checksums"])
    assert set(man["files"]) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in man["checksums"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert man["started"] <= man["finished"]
    return out



@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.txt"
    cfg.write_text(CFG)
    _run("gen", ["gen", "--spec", cfg, "--out", root / "data", "--seed", "0"])
    _run("train --variant scar-kl-grl",
         ["train", "--variant", "scar-kl-grl", "--config", cfg,
          "--data", root / "data" / "dataset.bin", "--out", root / "run", "--seed", "0"])
    return root


class TestGen:
    def test_dataset_counts(self, workdir):
        ds = load_dataset(workdir / "data" / "dataset.bin")
        target = [ep for ep in ds.episodes if ep.e == ds.target_e]
        assert len(target) == 4
        assert len(ds.episodes) == 16  # 4 target + 4 x 3 source embodiments

    def test_byte_identical_regeneration(self, workdir, tmp_path):
        cfg = workdir / "cfg.txt"
        _run("gen", ["gen", "--spec", cfg, "--out", tmp_path / "d2", "--seed", "0"])
        a = (workdir / "data" / "dataset.bin").read_bytes()
        b = (tmp_path / "d2" / "dataset.bin").read_bytes()
        assert a == b

    def test_three_value_meta_loads_and_trains_identically(self, workdir, tmp_path):
        # datasets whose per-episode meta also holds a trailing clip flag
        # (e, lighting, flag) load, and train to the same bytes
        new = workdir / "data" / "dataset.bin"
        old = tmp_path / "three-value-meta.bin"
        _edit_records(new, old, lambda name, vals: np.append(vals, np.float32(1.0))
                      if name.endswith(".meta") else vals)
        assert old.stat().st_size > new.stat().st_size
        a, b = load_dataset(new), load_dataset(old)
        assert [(ep.e, ep.lighting) for ep in a.episodes] == \
            [(ep.e, ep.lighting) for ep in b.episodes]
        for data, out in ((new, "r-new"), (old, "r-old")):
            _run("train --variant scar-kl-grl",
                 ["train", "--variant", "scar-kl-grl", "--config", workdir / "cfg.txt",
                  "--data", data, "--out", tmp_path / out, "--seed", "0"])
        for name in ("checkpoint.bin", "log.csv", "model.json"):
            assert (tmp_path / "r-new" / name).read_bytes() == \
                (tmp_path / "r-old" / name).read_bytes(), name

    def test_command_set_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("[dgp]\nparam_seed = 3\n")
        rc = main(["gen", "--spec", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "[dgp] key 'param_seed'" in capsys.readouterr().err

    def test_manifest_contents(self, workdir):
        man = json.loads((workdir / "data" / "manifest.json").read_text())
        assert man["command"] == "gen"
        assert man["seed"] == 0
        assert "dataset.bin" in man["files"]
        assert len(man["checksums"]["dataset.bin"]) == 64
        assert man["finished"] >= man["started"]


class TestTrain:
    def test_outputs_present(self, workdir):
        run = workdir / "run"
        for name in ("checkpoint.bin", "model.json", "log.csv", "manifest.json"):
            assert (run / name).exists()
        meta = json.loads((run / "model.json").read_text())
        assert meta["variant"] == "scar-kl-grl"
        tensors = load_checkpoint(run / "checkpoint.bin")
        assert any(k.startswith("idm.") for k in tensors)
        assert any(k.startswith("fdm.") for k in tensors)

    def test_deterministic_checkpoint(self, workdir, tmp_path):
        cfg = workdir / "cfg.txt"
        _run("train --variant scar-kl-grl",
             ["train", "--variant", "scar-kl-grl", "--config", cfg,
              "--data", workdir / "data" / "dataset.bin", "--out", tmp_path / "r2",
              "--seed", "0"])
        a = (workdir / "run" / "checkpoint.bin").read_bytes()
        b = (tmp_path / "r2" / "checkpoint.bin").read_bytes()
        assert a == b

    def test_contradictory_flags_refused(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("[train]\nsteps = 5\nbeta = 0.0\n")
        rc = main(["train", "--variant", "scar-kl", "--config", str(bad),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "beta" in err

    def test_diverging_run_is_an_error(self, workdir, tmp_path, capsys):
        hot = tmp_path / "hot.txt"
        hot.write_text("[train]\nsteps = 30\nlr_idm = 1e3\nlr_fdm = 1e3\n")
        rc = main(["train", "--variant", "shared-latent", "--config", str(hot),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert re.match(r"error: TrainingAborted: step \d+: L_\w+ = ", capsys.readouterr().err)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_variant_trains_with_default_weights(self, variant, workdir, tmp_path):
        cfg = tmp_path / "short.txt"
        cfg.write_text("[train]\nsteps = 3\n")
        out = _run(f"train --variant {variant}",
                   ["train", "--variant", variant, "--config", cfg,
                    "--data", workdir / "data" / "dataset.bin", "--out", tmp_path / "r"])
        assert json.loads((out / "model.json").read_text())["variant"] == variant

    def test_explicit_zero_weights_stay_valid(self, workdir, tmp_path):
        cfg = tmp_path / "zeroed.txt"
        cfg.write_text("[train]\nsteps = 3\nbeta = 0\nlam_adv = 0\n")
        _run("train --variant gt-action-baseline",
             ["train", "--variant", "gt-action-baseline", "--config", cfg,
              "--data", workdir / "data" / "dataset.bin", "--out", tmp_path / "r"])

    def test_pretraining_uses_model_section(self, workdir, tmp_path):
        cfg = tmp_path / "narrow.txt"
        cfg.write_text("[model]\nfdm_hidden = 64,64\n"
                       "[train]\nsteps = 3\npretrain_steps = 3\npretrain_fdm = true\n")
        out = _run("train --variant scar-kl-grl",
                   ["train", "--variant", "scar-kl-grl", "--config", cfg,
                    "--data", workdir / "data" / "dataset.bin", "--out", tmp_path / "r"])
        assert (out / "pretrain_log.csv").exists()
        tensors = load_checkpoint(out / "checkpoint.bin")
        assert tensors["fdm.block0.w"].shape[-1] == 64
        assert not any(k.startswith("fdm.block2.") for k in tensors)

    def test_variant_key_contradicting_flag_refused(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "other.txt"
        cfg.write_text("[train]\nvariant = scar-kl\nsteps = 3\n")
        rc = main(["train", "--variant", "scar-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "[train] key 'variant' is set by the command" in capsys.readouterr().err

    def test_variant_key_refused_even_when_it_matches_the_flag(self, workdir, tmp_path,
                                                                capsys):
        # --variant alone names the variant; the key could only restate it
        cfg = tmp_path / "same.txt"
        cfg.write_text("[train]\nvariant = scar-grl\nsteps = 3\n")
        rc = main(["train", "--variant", "scar-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "[train] key 'variant' is set by the command" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_unknown_variant_names_the_choices(self, workdir, tmp_path, capsys):
        rc = main(["train", "--variant", "scar-xl", "--data",
                   str(workdir / "data" / "dataset.bin"), "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'scar-xl'" in err and all(v in err for v in VARIANTS)
        assert not (tmp_path / "r").exists()

    def test_stride_key_refused(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "stride.txt"
        cfg.write_text("[model]\nstride = 2\n[train]\nsteps = 3\n")
        rc = main(["train", "--variant", "scar-kl-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "stride" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("train", "seed"), ("model", "d_v"),
                                             ("model", "n_embodiments"),
                                             ("model", "d_a_max")])
    def test_command_set_key_refused(self, workdir, tmp_path, capsys, section, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"[train]\nsteps = 3\n[{section}]\n{key} = 3\n")
        rc = main(["train", "--variant", "scar-kl-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"[{section}] key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_raw_action_width_comes_from_the_dataset(self, tmp_path):
        # a dataset with six-wide raw actions trains, evaluates and fits an
        # A2L head; the raw-action interface is as wide as its actions
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace("[dgp]\n", "[dgp]\nd_a = 6\n"))
        _run("gen", ["gen", "--spec", cfg, "--out", tmp_path / "data"])
        data = tmp_path / "data" / "dataset.bin"
        for variant in ("scar-kl-grl", "gt-action-baseline"):
            out = _run(f"train --variant {variant}",
                       ["train", "--variant", variant, "--config", cfg, "--data", data,
                        "--out", tmp_path / variant])
            assert json.loads((out / "model.json").read_text())["model_cfg"]["d_a_max"] == 6
        _run("eval", ["eval", "--checkpoints", f"full={tmp_path / 'scar-kl-grl'},"
                      f"gt={tmp_path / 'gt-action-baseline'}", "--data", data,
                      "--out", tmp_path / "ev", "--episodes", "2"])
        _run("a2l --mode sequence", ["a2l", "--checkpoint", tmp_path / "scar-kl-grl",
                                     "--data", data, "--out", tmp_path / "a2l"])

    def test_data_key_in_train_section_refused(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("[train]\nsteps = 3\nm_target = 4\n")
        rc = main(["train", "--variant", "scar-kl-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "line 3: unknown key 'm_target' in [train]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a2l_steps", "lr_a2l"])
    def test_a2l_key_in_train_section_refused(self, workdir, tmp_path, capsys, key):
        # `latact train` never trains an A2L head, so these are no [train] keys
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"[train]\nsteps = 3\n{key} = 5\n")
        rc = main(["train", "--variant", "scar-kl-grl", "--config", str(cfg),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"line 3: unknown key '{key}' in [train]" in capsys.readouterr().err

    def test_unknown_variant_exits_nonzero(self, workdir, tmp_path, capsys):
        rc = main(["train", "--variant", "scar-maximal",
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "scar-maximal" in capsys.readouterr().err


def _edit_header(src, dst, edit):
    """Copy a dataset file with its JSON header changed by `edit`."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4:4 + hlen])
    edit(header)
    hb = json.dumps(header).encode()
    dst.write_bytes(struct.pack("<I", len(hb)) + hb + raw[4 + hlen:])


def _edit_records(src, dst, edit, rename=None):
    """Copy a dataset file with each record's values replaced by
    `edit(name, values)`, and the records named in `rename` renamed."""
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        head = fin.read(4)
        fout.write(head + fin.read(struct.unpack("<I", head)[0]))
        while True:
            name, vals = read_record(fin, src, 0)
            if name is None:
                break
            write_record(fout, (rename or {}).get(name, name), edit(name, vals))


class TestEvalProbe:
    def test_eval_outputs(self, workdir, tmp_path):
        out = _run("eval", ["eval", "--checkpoints", f"m={workdir / 'run'}",
                            "--data", workdir / "data" / "dataset.bin",
                            "--out", tmp_path / "ev", "--episodes", "2"])
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,task,SSIM,PSNR,MSE,SSIM-L"
        assert len(lines) == 3  # header + target + transfer
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["m"]) == {"target", "transfer"}

    def test_eval_rolls_out_the_datasets_target_embodiment(self, workdir, tmp_path,
                                                           monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace("[data]\n", "[data]\ntarget_e = 2\n"))
        _run("gen", ["gen", "--spec", cfg, "--out", tmp_path / "data"])
        seen = []
        rollouts = ev.evaluate_rollouts

        def spy(models, episodes, spec, seed):
            seen.extend(ep.e for ep in episodes)
            return rollouts(models, episodes, spec, seed)

        monkeypatch.setattr(ev, "evaluate_rollouts", spy)
        _run("eval", ["eval", "--checkpoints", f"m={workdir / 'run'}",
                      "--data", tmp_path / "data" / "dataset.bin",
                      "--out", tmp_path / "ev", "--episodes", "2"])
        assert seen == [2] * 4     # two episodes for each of the two tasks

    def test_eval_bad_checkpoint_spec(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--checkpoints", "no-equals-sign",
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "name=dir" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, episodes, words", [
        ("={run}", "2", "name=dir, got '="),
        ("m={run},m={run}", "2", "names 'm' more than once"),
        ("m={run}", "0", "--episodes must be at least 1, got 0"),
    ])
    def test_eval_refuses_bad_options(self, workdir, tmp_path, capsys, entries, episodes, words):
        rc = main(["eval", "--checkpoints", entries.format(run=workdir / "run"),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "ev"), "--episodes", episodes])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and words in err
        assert not (tmp_path / "ev").exists()

    def test_probe_report(self, workdir, tmp_path):
        out = _run("probe", ["probe", "--checkpoint", workdir / "run",
                             "--data", workdir / "data" / "dataset.bin", "--out", tmp_path / "pr"])
        rep = json.loads((out / "probe.json").read_text())
        for key in ("eval_mse", "min_r2_forward", "probe_accuracy",
                    "mi_lower_bound"):
            assert key in rep

    def test_leakage_refuses_on_tiny_dataset(self, workdir, tmp_path, capsys, monkeypatch):
        # 16 episodes are too few for a reliable frame classifier; the
        # command must refuse rather than emit an untrustworthy report, and
        # refuse before it runs any rollout or creates its output directory
        calls = []
        monkeypatch.setattr(ev, "leakage_rollouts", lambda *a, **k: calls.append(a))
        rc = main(["leakage", "--checkpoint", str(workdir / "run"),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "lk")])
        assert rc == 1
        assert "0.9" in capsys.readouterr().err
        assert not (tmp_path / "lk").exists()
        assert calls == []

    @pytest.mark.parametrize("edit, words", [
        (("source_count = 4", "source_count = 0"), "no episodes of embodiment(s) 1, 2, 3"),
        (("T = 9\n", "T = 9\nn_embodiments = 1\n"), "only embodiment 0"),
    ], ids=["no-sources", "one-embodiment"])
    def test_leakage_refuses_dataset_without_an_embodiment(self, workdir, tmp_path, capsys,
                                                           monkeypatch, edit, words):
        # a classifier that never saw an embodiment cannot measure leakage
        # into it: refuse, naming the file, before any classifier training
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace(*edit))
        _run("gen", ["gen", "--spec", cfg, "--out", tmp_path / "data"])
        calls = []
        monkeypatch.setattr(ev, "train_frame_classifier",
                            lambda *a, **k: calls.append(a) or (None, 0.0))
        data = tmp_path / "data" / "dataset.bin"
        rc = main(["leakage", "--checkpoint", str(workdir / "run"), "--data", str(data),
                   "--out", str(tmp_path / "lk")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {data}: ") and words in err
        assert not (tmp_path / "lk").exists()
        assert calls == []

    def _probe_fails(self, run, data, tmp_path, capsys):
        rc = main(["probe", "--checkpoint", str(run), "--data", str(data),
                   "--out", str(tmp_path / "pr")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_dataset_header_unknown_spec_key_names_the_file(self, workdir, tmp_path, capsys):
        data = tmp_path / "odd-spec.bin"
        _edit_header(workdir / "data" / "dataset.bin", data,
                     lambda h: h["spec"].update(warp_factor=9))
        err = self._probe_fails(workdir / "run", data, tmp_path, capsys)
        assert str(data) in err and "warp_factor" in err

    @pytest.mark.parametrize("key", ["spec", "n_episodes"])
    def test_dataset_header_missing_key_names_the_file(self, workdir, tmp_path, capsys, key):
        data = tmp_path / "no-key.bin"
        _edit_header(workdir / "data" / "dataset.bin", data, lambda h: h.pop(key))
        err = self._probe_fails(workdir / "run", data, tmp_path, capsys)
        assert str(data) in err and repr(key) in err

    @pytest.mark.parametrize("record, edit", [("ep00003.a", lambda v: v[:-2]),
                                              ("ep00001.meta", lambda v: v[:1])],
                             ids=["a-rows", "meta-values"])
    def test_dataset_record_shape_names_the_record(self, workdir, tmp_path, capsys,
                                                   record, edit):
        data = tmp_path / "bad-record.bin"
        _edit_records(workdir / "data" / "dataset.bin", data,
                      lambda name, vals: edit(vals) if name == record else vals)
        err = self._probe_fails(workdir / "run", data, tmp_path, capsys)
        assert str(data) in err and record in err

    def test_dataset_renamed_record_names_the_record(self, workdir, tmp_path, capsys):
        # the record count matches the header, but one record's name does not
        data = tmp_path / "renamed-record.bin"
        _edit_records(workdir / "data" / "dataset.bin", data, lambda name, vals: vals,
                      rename={"ep00003.a": "ep00003.b"})
        err = self._probe_fails(workdir / "run", data, tmp_path, capsys)
        assert str(data) in err and "ep00003.a" in err and "KeyError" not in err

    def test_model_json_without_model_cfg_names_the_file(self, workdir, tmp_path, capsys):
        run = tmp_path / "no-cfg"
        shutil.copytree(workdir / "run", run)
        meta = json.loads((run / "model.json").read_text())
        del meta["model_cfg"]
        (run / "model.json").write_text(json.dumps(meta))
        err = self._probe_fails(run, workdir / "data" / "dataset.bin", tmp_path, capsys)
        assert str(run / "model.json") in err and "'model_cfg'" in err

    def test_model_json_not_json_names_the_file(self, workdir, tmp_path, capsys):
        run = tmp_path / "not-json"
        shutil.copytree(workdir / "run", run)
        (run / "model.json").write_text("checkpoint.bin\n")
        err = self._probe_fails(run, workdir / "data" / "dataset.bin", tmp_path, capsys)
        assert str(run / "model.json") in err

    def test_stale_model_json_names_the_file(self, workdir, tmp_path, capsys):
        run = tmp_path / "stale"
        shutil.copytree(workdir / "run", run)
        meta = json.loads((run / "model.json").read_text())
        meta["model_cfg"]["stride"] = 1
        (run / "model.json").write_text(json.dumps(meta))
        rc = main(["probe", "--checkpoint", str(run),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "pr")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "model.json" in err and "stride" in err

    def test_truncated_checkpoint_names_the_file(self, workdir, tmp_path, capsys):
        run = tmp_path / "cut"
        shutil.copytree(workdir / "run", run)
        ckpt = run / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        rc = main(["probe", "--checkpoint", str(run),
                   "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "pr")])
        assert rc == 1
        assert "checkpoint.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [("[dgp]\n", "[dgp]\nd_x = 14\nd_a = 4\n"),
                                      ("[dgp]\n", "[dgp]\nd_a = 6\n"),
                                      ("T = 9", "T = 5")], ids=["d_x", "d_a", "T"])
    @pytest.mark.parametrize("command", ["eval", "probe", "leakage", "a2l"])
    def test_model_that_cannot_take_the_dataset_names_both_files(self, workdir, tmp_path,
                                                                 capsys, command, edit):
        # the model was trained on 12-wide observations and 5-wide actions,
        # with a 5-step context
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace(*edit))
        _run("gen", ["gen", "--spec", cfg, "--out", tmp_path / "data"])
        data = tmp_path / "data" / "dataset.bin"
        run = workdir / "run"
        checkpoint = ["--checkpoints", f"m={run}"] if command == "eval" else ["--checkpoint", run]
        rc = main([str(a) for a in [command, *checkpoint, "--data", data,
                                    "--out", tmp_path / "o"]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {run / 'model.json'} ")
        assert f"cannot take {data} " in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestA2l:
    @pytest.mark.parametrize("mode", ["sequence", "pointwise", "ft"])
    def test_mode(self, workdir, tmp_path, mode):
        out = _run(f"a2l --mode {mode}",
                   ["a2l", "--checkpoint", workdir / "run",
                    "--data", workdir / "data" / "dataset.bin",
                    "--out", tmp_path / "a2l", "--mode", mode])
        rep = json.loads((out / "a2l.json").read_text())
        assert rep["mode"] == mode
        assert rep["eval_latent_mse"] >= 0
        before = load_checkpoint(workdir / "run" / "checkpoint.bin")
        after = load_checkpoint(out / "checkpoint.bin")
        assert any(k.startswith("a2l.") for k in after)
        for k in before:
            if k.startswith("idm."):
                assert after[k].tobytes() == before[k].tobytes(), k
        fdm_changed = any(after[k].tobytes() != before[k].tobytes()
                          for k in before if k.startswith("fdm."))
        assert fdm_changed == (mode == "ft")

    def test_raw_action_checkpoint_refused(self, workdir, tmp_path, capsys):
        # a gt-action-baseline checkpoint conditions on raw actions; its
        # inverse model was never trained, so there is nothing to fit A2L to
        run = tmp_path / "gt"
        _run("train --variant gt-action-baseline",
             ["train", "--variant", "gt-action-baseline", "--config", workdir / "cfg.txt",
              "--data", workdir / "data" / "dataset.bin", "--out", run])
        rc = main(["a2l", "--checkpoint", str(run), "--data", str(workdir / "data" / "dataset.bin"),
                   "--out", str(tmp_path / "a2l"), "--mode", "ft"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {run}: a raw-action ")
        assert not (tmp_path / "a2l").exists()

    @pytest.mark.parametrize("pointwise", [False, True])
    def test_eval_mse_is_the_mean_of_per_episode_errors(self, workdir, pointwise):
        model, _ = cli._load_model_dir(workdir / "run")
        model.a2l = A2LParams(model.cfg, stream(0, "a2l-init"))
        dataset = load_dataset(workdir / "data" / "dataset.bin")
        errs = []
        for ep in ev.eval_episodes(dataset.spec, 0, 20, dataset.target_e):
            target = idm_infer(ep.x.astype(np.float32), model.idm).mu.data
            pred = a2l_predict(ep.a, ep.x[: model.cfg.f_hist], model.a2l,
                               pointwise=pointwise).data
            errs.append(float(((pred - target) ** 2).mean()))
        assert cli._a2l_eval_mse(model, dataset, 0, pointwise=pointwise) == float(np.mean(errs))


class TestVerify:
    def test_unknown_preset(self, tmp_path, capsys):
        rc = main(["verify", "--preset", "vmf-enormous",
                   "--out", str(tmp_path / "v")])
        assert rc == 1
        assert "vmf-enormous" in capsys.readouterr().err

    def test_small_preset_passes(self, tmp_path):
        out = _run("verify --preset vmf-small",
                   ["verify", "--preset", "vmf-small", "--out", tmp_path / "v"])
        rep = json.loads((out / "verify.json").read_text())
        names = {c["check"] for c in rep["checks"]}
        assert names == {"saddle", "mgf", "bessel-recurrence", "idm-lemma"}
        assert all(c["passed"] for c in rep["checks"])

    def test_failed_check_exits_2_and_writes_the_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_mgf_check",
                            lambda preset, seed: {"worst_z": 9.0, "n_probes": 20})
        out = _run("verify --preset vmf-small",
                   ["verify", "--preset", "vmf-small", "--out", tmp_path / "v", "--seed", "4"],
                   rc=2)
        rep = json.loads((out / "verify.json").read_text())
        assert [c["check"] for c in rep["checks"] if not c["passed"]] == ["mgf"]
        assert capsys.readouterr().out == "verify: 3/4 checks passed\n"


def test_main_runs_the_command_bound_on_the_module(tmp_path, monkeypatch, capsys):
    # perfbench's tracer replaces `cli.cmd_*` before `main` runs; the
    # replacement is what must run
    calls = []

    def fake_probe(args):
        calls.append(args.checkpoint)
        path = cli._out_dir(args) / "probe.json"
        path.write_text("{}\n")
        return cli.Outputs("probe", "", [path], "probe: replaced")

    monkeypatch.setattr(cli, "cmd_probe", fake_probe)
    _run("probe", ["probe", "--checkpoint", "ckpt", "--data", "data.bin",
                   "--out", tmp_path / "pr", "--seed", "7"])
    assert calls == ["ckpt"]
    assert capsys.readouterr().out == "probe: replaced\n"


@pytest.mark.parametrize("command, text, words", [
    ("train", "[model]\nf_hist = 0\n", "[model] f_hist must be >= 1"),
    ("gen", "[dgp]\nmixing = mixx\n", "[dgp] mixing must be 'mix' or 'identity', got 'mixx'"),
    ("gen", "[data]\ntarget_e = 4\n", "[data] target_e must be one of the 4 embodiments, got 4"),
    ("train", "[train]\nsteps = 0\n", "[train] steps must be >= 1"),
    ("train", "[train]\nbatch_episodes = 0\n", "[train] batch_episodes must be >= 1"),
    ("train", "[train]\nsteps = 3\npretrain_fdm = true\npretrain_steps = 0\n",
     "[train] pretrain_steps must be >= 1"),
    ("train", "[train]\nlr_idm = -1e-3\n", "[train] lr_idm must be >= 0"),
    ("train", "[train]\nsteps = 3\nwd_fdm = -0.05\n", "[train] wd_fdm must be >= 0"),
    ("gen", "[dgp]\nT = 1\n", "[dgp] T must be >= 2"),
    ("train", "[model]\nf_hist = 9\n[train]\nsteps = 3\n",
     "[model] f_hist 9 leaves nothing to predict in the 9-step episodes of "),
], ids=["f_hist", "mixing", "target_e", "steps", "batch_episodes", "pretrain_steps",
        "lr_idm", "wd_fdm", "T", "f_hist_horizon"])
def test_unworkable_config_value_refused(workdir, tmp_path, capsys, command, text, words):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    argv = {"train": ["train", "--variant", "scar-kl-grl", "--config", cfg,
                      "--data", workdir / "data" / "dataset.bin"],
            "gen": ["gen", "--spec", cfg]}[command]
    rc = main([str(a) for a in argv + ["--out", tmp_path / "out"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and words in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def no_target_data(workdir):
    """A dataset of the workdir's make-up without target-embodiment episodes."""
    cfg = workdir / "no-target.txt"
    cfg.write_text(CFG.replace("m_target = 4", "m_target = 0"))
    _run("gen", ["gen", "--spec", cfg, "--out", workdir / "no-target"])
    return workdir / "no-target" / "dataset.bin"


@pytest.mark.parametrize("argv", [
    ["probe", "--checkpoint", "run"],
    ["a2l", "--checkpoint", "run"],
    ["train", "--variant", "target-only-latent", "--config", "cfg.txt"],
], ids=["probe", "a2l", "train"])
def test_dataset_without_target_episodes_refused(workdir, no_target_data, tmp_path, capsys,
                                                 argv):
    argv = [workdir / a if a in ("run", "cfg.txt") else a for a in argv]
    rc = main([str(a) for a in argv + ["--data", no_target_data, "--out", tmp_path / "o"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {no_target_data}: no episodes of the target")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_eval_runs_without_target_episodes(workdir, no_target_data, tmp_path):
    # eval draws its held-out episodes from the dataset's DGP, not its records
    _run("eval", ["eval", "--checkpoints", f"m={workdir / 'run'}", "--data", no_target_data,
                  "--out", tmp_path / "ev", "--episodes", "2"])


def test_missing_data_file_is_one_line_error(tmp_path, capsys):
    rc = main(["train", "--variant", "shared-latent",
               "--data", str(tmp_path / "nope.bin"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_readme_cli_block_parses():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("latact ")]
    assert [line.split()[1] for line in lines] == \
        ["gen", "train", "eval", "probe", "leakage", "a2l", "verify"]
    for line in lines:
        make_parser().parse_args(shlex.split(line)[1:])
