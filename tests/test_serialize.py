import os

import numpy as np
import pytest

from latact.rng import stream
from latact.serialize import MAGIC, checksum, load_checkpoint, save_checkpoint


def test_roundtrip(tmp_path):
    rng = stream(0, "test-ser")
    tensors = {
        "idm.w0": rng.normal(size=(3, 4)).astype(np.float32),
        "fdm.b": rng.normal(size=5).astype(np.float32),
        "scalar": np.float32(1.5),
    }
    path = tmp_path / "ck.bin"
    save_checkpoint(path, tensors)
    back = load_checkpoint(path)
    assert set(back) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(back[k], np.asarray(tensors[k], np.float32))


def test_header_layout(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.zeros(2, np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # count


def test_save_is_deterministic_bytes(tmp_path):
    tensors = {"b": np.ones(3, np.float32), "a": np.zeros(2, np.float32)}
    p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
    save_checkpoint(p1, tensors)
    save_checkpoint(p2, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_checksum_stable_and_sensitive():
    a = {"x": np.ones(3, np.float32)}
    b = {"x": np.ones(3, np.float32)}
    c = {"x": np.array([1.0, 1.0, 1.0 + 1e-6], np.float32)}
    assert checksum(a) == checksum(b)
    assert checksum(a) != checksum(c)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    try:
        load_checkpoint(p)
    except ValueError as e:
        assert "magic" in str(e)
    else:
        raise AssertionError("bad magic accepted")


def test_truncated_checkpoint_names_the_file(tmp_path):
    cut = tmp_path / "cut.bin"
    save_checkpoint(cut, {"idm.w": np.ones((2, 3), np.float32),
                          "scalar": np.float32(1.5)})
    for n in reversed(range(cut.stat().st_size)):
        os.truncate(cut, n)
        with pytest.raises(ValueError, match="cut.bin"):
            load_checkpoint(cut)


def test_truncated_record_names_index_and_name(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, {"a": np.zeros(2, np.float32), "b": np.ones((4, 4), np.float32)})
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match=r"record 1 \(b\) values"):
        load_checkpoint(path)
