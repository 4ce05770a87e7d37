"""Binary tensor records, and the checkpoint format built on them.

A tensor record (little-endian): name length u16, UTF-8 name, rank u8,
extents as u32s, float32 values. Checkpoints and datasets are sequences of
records.

Checkpoint layout: magic bytes ``SCAR``; version u32; tensor count u32; then
one record per tensor, names sorted.
"""

import struct

import numpy as np

from .autodiff import DTYPE

MAGIC = b"SCAR"
VERSION = 1


def write_record(fh, name, arr):
    """Append one tensor record to a binary file handle."""
    data = np.asarray(arr, dtype=DTYPE)
    nb = name.encode("utf-8")
    fh.write(struct.pack("<H", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<B", data.ndim))
    fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
    fh.write(data.astype("<f4").tobytes())


def read_exact(fh, n, path, what):
    """Exactly n bytes, or ValueError naming the file and what was cut."""
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError(f"{path}: truncated {what}: expected {n} bytes, got {len(raw)}")
    return raw


def read_record(fh, path, index):
    """(name, float32 array) of the next record, or (None, None) at a clean
    end of file. A cut record raises ValueError naming the file, the record
    index and, once it is known, the record name."""
    first = fh.read(1)
    if not first:
        return None, None
    where = f"record {index}"
    (nlen,) = struct.unpack("<H", first + read_exact(fh, 1, path, f"{where} name length"))
    name = read_exact(fh, nlen, path, f"{where} name").decode("utf-8")
    where = f"{where} ({name})"
    (rank,) = struct.unpack("<B", read_exact(fh, 1, path, f"{where} rank"))
    shape = struct.unpack(f"<{rank}I", read_exact(fh, 4 * rank, path, f"{where} shape"))
    n = int(np.prod(shape)) if shape else 1
    vals = np.frombuffer(read_exact(fh, 4 * n, path, f"{where} values"), dtype="<f4")
    return name, vals.reshape(shape).astype(DTYPE)


def save_checkpoint(path, tensors):
    """Write a name -> ndarray mapping. Keys are written sorted."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name in sorted(tensors):
            write_record(fh, name, tensors[name])


def load_checkpoint(path):
    """Read a checkpoint into a name -> float32 ndarray dict."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: bad magic bytes")
        version, count = struct.unpack("<II", read_exact(fh, 8, path, "header"))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        out = {}
        for i in range(count):
            name, vals = read_record(fh, path, i)
            if name is None:
                raise ValueError(f"{path}: truncated: {i} of {count} records present")
            out[name] = vals
        return out


def checksum(tensors):
    """Order-independent digest of a name -> ndarray mapping."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(tensors):
        data = np.asarray(tensors[name], dtype="<f4")
        h.update(name.encode("utf-8"))
        h.update(data.tobytes())
    return h.hexdigest()
