"""Synthetic multi-embodiment data-generating processes.

Each embodiment realizes a shared low-dimensional command u through its own
injective linear map; dynamics mix the state and apply the action through a
(optionally state-dependent) gain; observations are a squashed linear render
of the state with a per-embodiment nuisance block. A tiny 16x16 frame
renderer makes image metrics computable.
"""

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .rng import stream
from .serialize import read_exact, read_record, write_record

F32 = np.float32


@dataclass
class DGPSpec:
    """Full description of one synthetic data-generating process."""

    d_u: int = 2
    d_a: int = 5
    d_s: int = 4
    d_x: int = 12
    n_embodiments: int = 4
    T: int = 17
    nuisance_dim: int = 3
    gain_field: bool = True        # g(s) = 1 + 0.5 tanh(s_1)
    squash: bool = True            # tanh after the render projection
    action_squash: bool = False    # optional monotone squashing after Q_e u + b_e
    mixing: str = "mix"            # "mix" or "identity" state-mixing map
    goal_sign: float = 1.0         # transfer task mirrors this
    lighting_scale: float = 0.1    # per-episode offset on the nuisance block
    frame_size: int = 16
    param_seed: int = 0            # seed for drawing the fixed maps below

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("T must be >= 2")
        for name in ("d_u", "d_s", "d_x", "n_embodiments", "frame_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lighting_scale < 0:
            raise ValueError(f"lighting_scale must be >= 0, got {self.lighting_scale}")
        if self.d_a < self.d_u:
            raise ValueError("raw action dim must be >= unified action dim")
        if self.nuisance_dim > self.d_x:
            raise ValueError("nuisance block larger than observation")
        if self.mixing not in ("mix", "identity"):
            raise ValueError(f"mixing must be 'mix' or 'identity', got {self.mixing!r}")
        self._draw_params()

    def _draw_params(self):
        rng = stream(self.param_seed, "dgp-params")
        self.Q = []   # per-embodiment realization maps, d_a x d_u
        self.b = []   # per-embodiment offsets
        for e in range(self.n_embodiments):
            self.Q.append(_injective_matrix(rng, self.d_a, self.d_u))
            self.b.append(rng.uniform(-0.3, 0.3, self.d_a).astype(F32))
        self.W_dyn = rng.normal(0, 1.0, (self.d_s, self.d_a)).astype(F32)
        # scale so one step moves the state by O(0.3)
        self.W_dyn *= F32(0.3 / max(np.linalg.norm(self.W_dyn @ q, 2) for q in self.Q))
        self.A_mix = rng.normal(0, 0.5, (self.d_s, self.d_s)).astype(F32)
        self.goal = (self.goal_sign * rng.uniform(-0.15, 0.15, self.d_s)).astype(F32)
        d_state_obs = self.d_x - self.nuisance_dim
        self.P = _injective_matrix(rng, d_state_obs, self.d_s)
        self.P_pinv = np.linalg.pinv(self.P)  # decode_state runs once per frame
        # nuisance codes: well separated sign patterns in [-0.8, 0.8]
        codes = []
        for e in range(self.n_embodiments):
            bits = [(e >> k) & 1 for k in range(self.nuisance_dim)]
            codes.append(np.array([0.8 if b else -0.8 for b in bits], F32))
        self.nuisance_codes = codes

    def spec_hash(self):
        import hashlib

        payload = {k: v for k, v in asdict(self).items()}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    @property
    def embodiments(self):
        return list(range(self.n_embodiments))


def _injective_matrix(rng, rows, cols):
    """Random rows x cols matrix with singular values in [0.5, 1.2]."""
    assert rows >= cols
    a = rng.normal(size=(rows, cols))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    svals = rng.uniform(0.5, 1.2, cols)
    return (u * svals) @ vt


@dataclass
class Trajectory:
    """One episode with synthetic-only side channels (u, s)."""

    x: np.ndarray          # (T, d_x) observations
    a: np.ndarray          # (T-1, d_a) raw actions
    e: int                 # embodiment id
    u: np.ndarray          # (T-1, d_u) ground-truth unified actions
    s: np.ndarray          # (T, d_s) states
    lighting: float = 0.0

    def __post_init__(self):
        T = self.x.shape[0]
        assert self.a.shape[0] == T - 1 and self.u.shape[0] == T - 1 and self.s.shape[0] == T


def sample_unified_action(rng, spec, n):
    """n rows of u ~ Uniform[-1, 1]^d_u, independent of embodiment: (n, d_u)."""
    return rng.uniform(-1.0, 1.0, (n, spec.d_u)).astype(F32)


def realize_action(u, e, spec):
    """a = Q_e u + b_e per row of u (..., d_u), optionally squashed;
    injective in u for fixed e."""
    if e not in spec.embodiments:
        raise ValueError(f"unknown embodiment {e}")
    a = np.asarray(u, F32) @ spec.Q[e].T + spec.b[e]
    if spec.action_squash:
        a = np.tanh(a)
    return a.astype(F32)


def _mix(s, spec):
    if spec.mixing == "identity":
        return s
    return 0.9 * s + 0.2 * np.tanh(spec.A_mix @ s) + spec.goal


def gain(s, spec):
    return 1.0 + 0.5 * np.tanh(s[0]) if spec.gain_field else 1.0


def step_dynamics(s, a, spec):
    """s' = m(s) + g(s) * (W_dyn a)."""
    s = np.asarray(s, F32)
    return (_mix(s, spec) + F32(gain(s, spec)) * (spec.W_dyn @ np.asarray(a, F32))).astype(F32)


def render(s, e, spec, lighting=0.0):
    """x = squash(P s) on the state block; nuisance block = n_e + lighting.
    States (..., d_s) give observations (..., d_x)."""
    s = np.asarray(s, F32)
    proj = s @ spec.P.T
    state_obs = np.tanh(proj) if spec.squash else proj
    x = np.empty(s.shape[:-1] + (spec.d_x,), F32)
    x[..., : spec.d_x - spec.nuisance_dim] = state_obs
    x[..., spec.d_x - spec.nuisance_dim:] = spec.nuisance_codes[e] + F32(lighting)
    return x


def obs_state_block(x, spec):
    return np.asarray(x)[..., : x.shape[-1] - spec.nuisance_dim]


def obs_nuisance_block(x, spec):
    return np.asarray(x)[..., x.shape[-1] - spec.nuisance_dim:]


def decode_state(x, spec):
    """Recover the state from an observation's state block (pseudo-inverse)."""
    block = obs_state_block(x, spec)
    if spec.squash:
        block = np.arctanh(np.clip(block, -0.999999, 0.999999))
    return (block @ spec.P_pinv.T).astype(F32)


# ---- frames ----

_GLYPH_PIX = [(0, 0), (0, 1), (1, 0)]  # top-left corner pixels, one per nuisance dim


def frame_from_obs(x, spec):
    """Rasterize observations (..., d_x) into frames (..., n, n): agent blob
    from the decoded state, then glyph pixels from the nuisance block, so a
    glyph pixel overwrites the blob. Pure function of x; a blob position off
    the frame is clamped to its edge, and a half position rounds to even."""
    n = spec.frame_size
    p = (decode_state(x, spec)[..., :2] + 1.5) / 3.0 * (n - 2)
    if np.isnan(p).any():
        raise ValueError("observation decodes to a NaN state; no blob position")
    pos = np.rint(np.clip(p, 0, n - 2)).astype(int)
    idx = np.arange(n)
    rows = (idx >= pos[..., 1:2]) & (idx < pos[..., 1:2] + 2)
    cols = (idx >= pos[..., 0:1]) & (idx < pos[..., 0:1] + 2)
    frame = (rows[..., :, None] & cols[..., None, :]).astype(F32)
    nuis = obs_nuisance_block(x, spec)
    for k, (i, j) in enumerate(_GLYPH_PIX[: spec.nuisance_dim]):
        frame[..., i, j] = np.clip(0.5 + 0.5 * nuis[..., k], 0.0, 1.0)
    return frame


def generate_episode(seed, e, T, spec, index=0):
    """Deterministic episode: same (seed, e, T, spec, index) -> same bits."""
    if T < 2:
        raise ValueError("T must be >= 2")
    rng = stream(seed, f"episode:{e}:{index}")
    lighting = float(rng.uniform(-spec.lighting_scale, spec.lighting_scale))
    s = np.empty((T, spec.d_s), F32)
    s[0] = rng.normal(0, 0.5, spec.d_s)
    u = sample_unified_action(rng, spec, T - 1)
    a = realize_action(u, e, spec)
    for t in range(T - 1):
        s[t + 1] = step_dynamics(s[t], a[t], spec)
    x = render(s, e, spec, lighting)
    return Trajectory(x=x, a=a, e=e, u=u, s=s, lighting=lighting)


@dataclass
class Dataset:
    spec: DGPSpec
    episodes: list
    target_e: int

    def by_embodiment(self, e):
        return [ep for ep in self.episodes if ep.e == e]


def generate_dataset(seed, spec, target_e=0, *, m_target, source_count):
    """Low-data target + plentiful sources; episodes ordered by (e, index)."""
    episodes = []
    for e in spec.embodiments:
        count = m_target if e == target_e else source_count
        for i in range(count):
            episodes.append(generate_episode(seed, e, spec.T, spec, index=i))
    return Dataset(spec=spec, episodes=episodes, target_e=target_e)


# ---- dataset file I/O ----

_EPISODE_RECORDS = ("x", "a", "u", "s", "meta")


def save_dataset(path, dataset):
    """Header (spec hash, counts, dims) + per-episode tensor records: x, a,
    u, s, and meta = (embodiment, lighting)."""
    spec = dataset.spec
    counts = [len(dataset.by_embodiment(e)) for e in spec.embodiments]
    header = {
        "spec_hash": spec.spec_hash(),
        "spec": asdict(spec),
        "counts": counts,
        "dims": [spec.d_u, spec.d_a, spec.d_s, spec.d_x],
        "target_e": dataset.target_e,
        "n_episodes": len(dataset.episodes),
    }
    with open(path, "wb") as fh:
        hb = json.dumps(header, sort_keys=True).encode()
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        for i, ep in enumerate(dataset.episodes):
            meta = np.array([ep.e, ep.lighting], F32)
            for name, arr in zip(_EPISODE_RECORDS, (ep.x, ep.a, ep.u, ep.s, meta)):
                write_record(fh, f"ep{i:05d}.{name}", arr)


def load_dataset(path):
    """Read a `save_dataset` file. Each episode's records must have the
    shapes the header's spec gives; only the first two meta values are read,
    so files that also store a per-episode clip flag there still load."""
    with open(path, "rb") as fh:
        (hlen,) = struct.unpack("<I", read_exact(fh, 4, path, "header length"))
        raw = read_exact(fh, hlen, path, "header")
        try:
            header = json.loads(raw.decode())
            spec = DGPSpec(**header["spec"])
            n_episodes, spec_hash = header["n_episodes"], header["spec_hash"]
            target_e = header["target_e"]
        except KeyError as exc:
            raise ValueError(f"{path}: dataset header missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad dataset header: {exc}") from exc
        if spec.spec_hash() != spec_hash:
            raise ValueError(f"{path}: dataset header hash mismatch")
        records = {}
        while True:
            name, vals = read_record(fh, path, len(records))
            if name is None:
                break
            records[name] = vals
    n_records = n_episodes * len(_EPISODE_RECORDS)
    if len(records) != n_records:
        raise ValueError(f"{path}: holds {len(records)} records, header promises {n_records}")
    T = spec.T
    shapes = {"x": (T, spec.d_x), "a": (T - 1, spec.d_a), "u": (T - 1, spec.d_u),
              "s": (T, spec.d_s)}
    episodes = []
    for i in range(n_episodes):
        p = f"ep{i:05d}"
        try:
            ep = {name: records[f"{p}.{name}"] for name in _EPISODE_RECORDS}
        except KeyError as exc:
            raise ValueError(f"{path}: record {exc.args[0]} is missing") from exc
        for name, shape in shapes.items():
            if ep[name].shape != shape:
                raise ValueError(f"{path}: record {p}.{name} has shape {ep[name].shape}, "
                                 f"the header spec gives {shape}")
        meta = ep.pop("meta")
        if meta.ndim != 1 or len(meta) < 2:
            raise ValueError(f"{path}: record {p}.meta has shape {meta.shape}, "
                             "need at least 2 values")
        episodes.append(Trajectory(**ep, e=int(meta[0]), lighting=float(meta[1])))
    return Dataset(spec=spec, episodes=episodes, target_e=target_e)


def transfer_spec(spec):
    """Same process with the goal offset mirrored (task shift analogue)."""
    kw = asdict(spec)
    kw["goal_sign"] = -spec.goal_sign
    return DGPSpec(**kw)


# ---- von Mises-Fisher sampling ----

def vmf_sample(center, kappa, n, rng):
    """n i.i.d. unit vectors from vMF(center, kappa) per center; Wood-style
    rejection for the radial component, uniform tangential component.

    A (d,) center gives (n, d); a (k, d) stack of centers gives (k, n, d),
    with out[i] drawn around center[i]. All k*n radial parts come from one
    rejection loop, then one (k, n, d) normal block supplies the tangents,
    so a one-center call draws exactly what a (1, d) stack draws.

    kappa = 0 needs no branch: the envelope then accepts every draw, and
    w = 1 - 2z with z ~ Beta((d-1)/2, (d-1)/2) is the radial law of the
    uniform sphere.
    """
    center = np.asarray(center, np.float64)
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if center.ndim not in (1, 2):
        raise ValueError(f"center must be (d,) or (k, d), got shape {center.shape}")
    if np.abs(np.linalg.norm(center, axis=-1) - 1.0).max() > 1e-6:
        raise ValueError("every center must be unit norm")
    centers = center.reshape(-1, center.shape[-1])    # (k, d)
    k, d = centers.shape
    ws = _vmf_radial(kappa, d, k * n, rng).reshape(k, n, 1)
    # tangential directions orthogonal to each row's own center
    v = rng.normal(size=(k, n, d))
    v -= np.matmul(v, centers[:, :, None]) * centers[:, None, :]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    out = ws * centers[:, None, :] + np.sqrt(1.0 - ws ** 2) * v
    return out.reshape(center.shape[:-1] + (n, d)).astype(F32)


def _vmf_radial(kappa, d, n, rng):
    dim = d - 1
    b = dim / (np.sqrt(4.0 * kappa**2 + dim**2) + 2 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dim * np.log(1 - x0**2)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(dim / 2.0, dim / 2.0, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=todo)
        ok = kappa * w + dim * np.log(1.0 - x0 * w) - c >= np.log(u)
        k = int(ok.sum())
        out[filled:filled + k] = w[ok]
        filled += k
    return out
