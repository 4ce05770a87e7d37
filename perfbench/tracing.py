"""Spans from wrappers that the traced run installs around the program's
public functions, and the per-layer figures derived from them.

A span is (name, start, end, parent). Spans live in compact arrays while the
run lasts and are written out once at the end. The benchmark opens an
``op.<label>`` span around every command, so each span can be attributed to
the command that caused it.
"""

import functools
import importlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name). The attribute is where callers look the
# function up: `from .x import f` makes a separate binding in the importing
# module, so each binding that is called gets its own wrapper. The span name
# is the layer that owns the function.
WRAP_POINTS = [
    ("cli", "cmd_gen", "cli.gen"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_probe", "cli.probe"),
    ("cli", "cmd_leakage", "cli.leakage"),
    ("cli", "cmd_a2l", "cli.a2l"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "generate_dataset", "worldgen.generate_dataset"),
    ("cli", "save_dataset", "worldgen.save_dataset"),
    ("cli", "load_dataset", "worldgen.load_dataset"),
    ("cli", "save_checkpoint", "serialize.save_checkpoint"),
    ("cli", "load_checkpoint", "serialize.load_checkpoint"),
    ("cli", "pretrain_fdm", "training.pretrain_fdm"),
    ("cli", "train_scar", "training.train_scar"),
    ("cli", "train_a2l", "training.train_a2l"),
    ("training", "total_loss", "training.total_loss"),
    ("training", "posterior_mean_targets", "training.posterior_mean_targets"),
    ("training", "idm_infer", "models.idm_infer"),
    ("training", "cond_sequence", "models.cond_sequence"),
    ("training", "fdm_flow_predict", "models.fdm_flow_predict"),
    ("training", "disc_classify", "models.disc_classify"),
    ("training", "a2l_predict", "models.a2l_predict"),
    ("models", "idm_infer", "models.idm_infer"),
    ("models", "a2l_predict", "models.a2l_predict"),
    ("models", "fdm_flow_predict", "models.fdm_flow_predict"),
    ("models", "adaln_modulate", "nn.adaln_modulate"),
    ("models", "causal_temporal_conv", "nn.causal_temporal_conv"),
    ("nn", "Mlp.__call__", "nn.Mlp"),
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("optim", "AdamW.step", "optim.AdamW.step"),
    ("evaluate", "run_transfer_eval", "evaluate.run_transfer_eval"),
    ("evaluate", "evaluate_rollouts", "evaluate.evaluate_rollouts"),
    ("evaluate", "rollout_episode", "evaluate.rollout_episode"),
    ("evaluate", "image_metrics", "evaluate.image_metrics"),
    ("evaluate", "eval_episodes", "evaluate.eval_episodes"),
    ("evaluate", "frames_from_obs_seq", "evaluate.frames_from_obs_seq"),
    ("evaluate", "train_frame_classifier", "evaluate.train_frame_classifier"),
    ("evaluate", "leakage_rollouts", "evaluate.leakage_rollouts"),
    ("evaluate", "leakage_eval", "evaluate.leakage_eval"),
    ("evaluate", "action_probe", "evaluate.action_probe"),
    ("evaluate", "latents_with_ground_truth", "evaluate.latents_with_ground_truth"),
    ("evaluate", "latent_recovery_score", "evaluate.latent_recovery_score"),
    ("evaluate", "rollout_generate", "models.rollout_generate"),
    ("evaluate", "idm_infer", "models.idm_infer"),
    ("evaluate", "cond_sequence", "models.cond_sequence"),
    ("evaluate", "action_cond_sequence", "models.action_cond_sequence"),
    ("evaluate", "generate_episode", "worldgen.generate_episode"),
    ("evaluate", "frame_from_obs", "worldgen.frame_from_obs"),
    ("evaluate", "fit_mlp", "fitting.fit_mlp"),
    ("evaluate", "fit_logistic_probe", "fitting.fit_logistic_probe"),
    ("worldgen", "generate_episode", "worldgen.generate_episode"),
    ("worldgen", "frame_from_obs", "worldgen.frame_from_obs"),
    ("worldgen", "vmf_sample", "worldgen.vmf_sample"),
    ("theory", "make_vmf_experiment", "theory.make_vmf_experiment"),
    ("theory", "saddle_train", "theory.saddle_train"),
    ("theory", "idm_lemma_check", "theory.idm_lemma_check"),
    ("theory", "train_linear_idm_fdm", "theory.train_linear_idm_fdm"),
    ("theory", "mgf_closed_form", "theory.mgf_closed_form"),
    ("theory", "vmf_sample", "worldgen.vmf_sample"),
    ("theory", "generate_episode", "worldgen.generate_episode"),
    ("theory", "fit_mlp", "fitting.fit_mlp"),
    ("theory", "fit_linear", "fitting.fit_linear"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._saved = []

    def __len__(self):
        return len(self.start)

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self, package="latact"):
        """Wrap every WRAP_POINTS entry; returns the entries the program no
        longer has, whose figures then read null."""
        missing = []
        for module, attr, name in WRAP_POINTS:
            owner = importlib.import_module(f"{package}.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))
        return missing

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self) else 0.0
        path.write_text(json.dumps({
            "names": self.names,
            "name": list(self.name_id),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.end],
            "parent": list(self.parent),
            "self_s_by_op_and_layer": SpanIndex(self).self_by_op_layer(),
        }))


class SpanIndex:
    """Durations, self times and command attribution of recorded spans."""

    def __init__(self, tracer):
        self.t = tracer
        n = len(tracer)
        self.names = tracer.names
        self.child_time = [0.0] * n
        self.children = {}
        self.by_name = {}
        self.op = [None] * n
        for i in range(n):
            p = tracer.parent[i]
            name = tracer.names[tracer.name_id[i]]
            self.by_name.setdefault(name, []).append(i)
            if p >= 0:
                self.child_time[p] += tracer.end[i] - tracer.start[i]
                self.children.setdefault(p, []).append(i)
            # parents are opened, so indexed, before their children
            self.op[i] = name[3:] if name.startswith("op.") else (self.op[p] if p >= 0 else None)

    def name(self, i):
        return self.names[self.t.name_id[i]]

    def dur(self, i):
        return self.t.end[i] - self.t.start[i]

    def self_time(self, i):
        return self.dur(i) - self.child_time[i]

    def select(self, name, ops=None):
        return [i for i in self.by_name.get(name, ())
                if self.op[i] is not None and (ops is None or self.op[i] in ops)]

    def kids(self, i, name):
        return [c for c in self.children.get(i, ()) if self.name(c) == name]

    def median(self, name, ops=None):
        vals = [self.dur(i) for i in self.select(name, ops)]
        return statistics.median(vals) if vals else None

    def self_by_op_layer(self):
        out = {}
        for i in range(len(self.op)):
            if self.op[i] is None:
                continue
            layer = self.name(i).split(".")[0]
            per_op = out.setdefault(self.op[i], {})
            per_op[layer] = per_op.get(layer, 0.0) + self.self_time(i)
        return {op: {k: round(v, 6) for k, v in sorted(d.items())} for op, d in sorted(out.items())}


def _per_step(ix, loop_name, step_name, ops, part=None):
    """Median over loop spans of (loop time, or time in `part` children, or
    the loop's self time when part == "self") divided by its step count."""
    vals = []
    for i in ix.select(loop_name, ops):
        steps = len(ix.kids(i, step_name))
        if not steps:
            continue
        if part is None:
            t = ix.dur(i)
        elif part == "self":
            t = ix.self_time(i)
        else:
            t = sum(ix.dur(c) for c in ix.kids(i, part))
        vals.append(t / steps)
    return statistics.median(vals) if vals else None


def _kid_median(ix, loop_name, kid_name, ops):
    vals = [ix.dur(c) for i in ix.select(loop_name, ops) for c in ix.kids(i, kid_name)]
    return statistics.median(vals) if vals else None


def _op_rate(ix, op, work):
    vals = [work / ix.dur(i) for i in ix.select(f"op.{op}")]
    return statistics.median(vals) if vals else None


def _op_time(ix, op):
    return ix.median(f"op.{op}", [op])


def span_metrics(tracer, work):
    """Per-layer figures from the spans. `work` gives the amount of work of
    each command (episodes, steps) for the per-command rates."""
    ix = SpanIndex(tracer)
    train, ev, leak, probe = ["train"], ["eval"], ["leakage"], ["probe"]
    seq, ft, ver, gen = ["a2l-sequence"], ["a2l-ft"], ["verify"], ["gen"]
    m = {
        "cmd.gen_episodes_per_s": _op_rate(ix, "gen", work["gen"]),
        "cmd.train_steps_per_s": _op_rate(ix, "train", work["train"]),
        "cmd.rollout_eps_per_s": _op_rate(ix, "eval", work["eval"]),
        "cmd.leakage_s": _op_time(ix, "leakage"),
        "cmd.probe_s": _op_time(ix, "probe"),
        "cmd.a2l_seq_steps_per_s": _op_rate(ix, "a2l-sequence", work["a2l"]),
        "cmd.a2l_ft_steps_per_s": _op_rate(ix, "a2l-ft", work["a2l"]),
        "cmd.verify_s": _op_time(ix, "verify"),
        "autodiff.backward_ms.train_step":
            _kid_median(ix, "training.train_scar", "autodiff.backward", train),
        "autodiff.backward_ms.a2l_ft_step":
            _kid_median(ix, "training.train_a2l", "autodiff.backward", ft),
        "nn.adaln_modulate_ms": ix.median("nn.adaln_modulate", train),
        "nn.causal_temporal_conv_ms": ix.median("nn.causal_temporal_conv", train),
        "models.idm_infer_ms": ix.median("models.idm_infer", train),
        "models.fdm_flow_predict_ms": ix.median("models.fdm_flow_predict", train),
        "models.disc_classify_ms": ix.median("models.disc_classify", train),
        "models.rollout_generate_ms": ix.median("models.rollout_generate", ev),
        "models.a2l_predict_ms": ix.median("models.a2l_predict", seq),
        "training.scar_step_ms":
            _per_step(ix, "training.train_scar", "training.total_loss", train),
        "training.pretrain_step_ms":
            _per_step(ix, "training.pretrain_fdm", "autodiff.backward", train),
        "training.total_loss_ms": ix.median("training.total_loss", train),
        "optim.adamw_step_ms":
            _per_step(ix, "training.train_scar", "training.total_loss", train, "optim.AdamW.step"),
        "training.step_self_ms":
            _per_step(ix, "training.train_scar", "training.total_loss", train, "self"),
        "training.a2l_step_ms.sequence":
            _per_step(ix, "training.train_a2l", "autodiff.backward", seq),
        "training.a2l_step_ms.ft":
            _per_step(ix, "training.train_a2l", "autodiff.backward", ft),
        "worldgen.generate_episode_ms": ix.median("worldgen.generate_episode", gen),
        "worldgen.frame_from_obs_us": ix.median("worldgen.frame_from_obs", ev + leak),
        "worldgen.vmf_sample_ms": ix.median("worldgen.vmf_sample", ver),
        "worldgen.save_dataset_ms": ix.median("worldgen.save_dataset"),
        "worldgen.load_dataset_ms": ix.median("worldgen.load_dataset"),
        "evaluate.rollout_episode_ms": ix.median("evaluate.rollout_episode", ev),
        "evaluate.image_metrics_ms": ix.median("evaluate.image_metrics", ev),
        "evaluate.eval_episodes_ms": ix.median("evaluate.eval_episodes", ev),
        "evaluate.train_frame_classifier_s": ix.median("evaluate.train_frame_classifier", leak),
        "evaluate.leakage_rollouts_s": ix.median("evaluate.leakage_rollouts", leak),
        "evaluate.action_probe_s": ix.median("evaluate.action_probe", probe),
        "evaluate.latent_recovery_score_s": ix.median("evaluate.latent_recovery_score", probe),
        "fitting.fit_mlp_s": ix.median("fitting.fit_mlp", probe),
        "fitting.fit_logistic_probe_s": ix.median("fitting.fit_logistic_probe", probe),
        "theory.saddle_train_s": ix.median("theory.saddle_train", ver),
        "theory.idm_lemma_check_s": ix.median("theory.idm_lemma_check", ver),
        "serialize.save_checkpoint_ms": ix.median("serialize.save_checkpoint"),
        "serialize.load_checkpoint_ms": ix.median("serialize.load_checkpoint"),
    }
    for cmd, op in (("gen", "gen"), ("train", "train"), ("eval", "eval"),
                    ("leakage", "leakage"), ("probe", "probe"), ("a2l", "a2l-sequence"),
                    ("verify", "verify")):
        vals = [ix.self_time(i) for i in ix.select(f"cli.{cmd}", [op])]
        m[f"cli.{cmd}_self_ms"] = statistics.median(vals) if vals else None
    # spans are in seconds; names carry the unit
    for k, v in m.items():
        for suffix, scale in (("_ms", 1e3), ("_us", 1e6)):
            if v is not None and (k.endswith(suffix) or f"{suffix}." in k):
                m[k] = v * scale
    return m
