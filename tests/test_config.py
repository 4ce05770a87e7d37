import pytest

from latact.config import (
    ConfigError,
    build_section,
    config_hash,
    load_config,
    parse_config,
)

GOOD = """
# comment line
[dgp]
T = 9          # trailing comment
d_a = 5

[train]
steps = 20
beta = 5e-4
pretrain_fdm = true

[model]
idm_hidden = 64,64
"""


class TestParse:
    def test_types_coerced(self):
        cfg = parse_config(GOOD)
        assert cfg["dgp"]["T"] == 9
        assert cfg["train"]["beta"] == pytest.approx(5e-4)
        assert cfg["train"]["pretrain_fdm"] is True
        assert cfg["model"]["idm_hidden"] == (64, 64)

    def test_unknown_section_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*'nope'"):
            parse_config("[nope]\nx = 1")

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 3.*'warp_factor'"):
            parse_config("[dgp]\n\nwarp_factor = 9")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("T = 9")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[dgp]\njust words")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="'T' expects an integer"):
            parse_config("[dgp]\nT = soon")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config("[train]\npretrain_fdm = perhaps")

    def test_bad_tuple(self):
        with pytest.raises(ConfigError, match="comma-separated"):
            parse_config("[model]\nidm_hidden = big,64")

    def test_empty_text_gives_empty_config(self):
        assert parse_config("") == {}


class TestHashAndRender:
    def test_hash_stable_under_reordering(self):
        a = parse_config("[dgp]\nT = 9\nd_a = 5\n[train]\nsteps = 20")
        b = parse_config("[train]\nsteps = 20\n[dgp]\nd_a = 5\nT = 9")
        assert config_hash(a) == config_hash(b)

    def test_hash_sensitive_to_values(self):
        a = parse_config("[dgp]\nT = 9")
        b = parse_config("[dgp]\nT = 10")
        assert config_hash(a) != config_hash(b)

class TestBuildSection:
    def test_defaults_plus_overrides(self):
        cfg = parse_config("[train]\nsteps = 7")
        tc = build_section(cfg, "train", variant="scar-kl-grl", seed=3)
        assert tc.steps == 7 and tc.seed == 3

    def test_dataclass_validation_becomes_config_error(self):
        cfg = parse_config("[train]\nbeta = 0.0")
        with pytest.raises(ConfigError, match="beta"):
            build_section(cfg, "train", variant="scar-kl")

    def test_missing_section_uses_defaults(self):
        dc = build_section({}, "data")
        assert dc.m_target == 10 and dc.source_count == 300


def test_load_config(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text(GOOD)
    assert load_config(p) == parse_config(GOOD)
