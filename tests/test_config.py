"""The config checker: every bad value exits 4 naming its `section.key`."""

import dataclasses
import json

import pytest

from senseline import cli
from senseline.config import _SECTIONS, RunConfig, config_from_dict, config_hash
from senseline.device import DeviceParams
from senseline.line_sim import LineTiming
from senseline.quantizer import QuantSpec

# Every key of a config document, enumerated from the dataclasses, so a field
# added without a kind accepts some value below and fails the test.
KEYS = [f"{s}.{f.name}" for s, cls in _SECTIONS.items() for f in dataclasses.fields(cls)] \
    + [f.name for f in dataclasses.fields(RunConfig) if f.name not in _SECTIONS]
VALUES = {"true": True, "string": "1", "null": None, "nan": float("nan"), "minus1": -1,
          "list": []}
# The (key, value) pairs that the key's kind accepts; every other pair is rejected.
ACCEPTED = {("sbs.enabled", "true"), ("sbs.max_features", "null"),
            ("sbs.candidate_rows", "null"), ("evaluate.subset", "null"),
            ("out_dir", "string")} | {(k, "string") for k in KEYS if k.startswith("data.")}


def _doc(key, value):
    *section, name = key.split(".")
    return {section[0]: {name: value}} if section else {name: value}


def _prepare(tmp_path, doc, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # NaN as JSON NaN
    return cli.main(["prepare", "-c", str(path), *flags])


@pytest.mark.parametrize("value_id", VALUES)
@pytest.mark.parametrize("key", KEYS)
def test_every_key_checks_its_kind(key, value_id, tmp_path, monkeypatch, capsys):
    # `true` and strings in device, line and quant used to load as numbers or
    # fail with a message that named no key.
    doc = _doc(key, VALUES[value_id])
    if (key, value_id) in ACCEPTED:
        config_from_dict(doc)
        return
    monkeypatch.chdir(tmp_path)  # a config that wrongly loads writes nothing elsewhere
    assert _prepare(tmp_path, doc) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("section", [*_SECTIONS, None])
def test_non_object_section_or_document_exits_4(section, tmp_path, capsys):
    # Was "'int' object is not iterable", or a TypeError from a flag's write.
    doc = 5 if section is None else {section: 5}
    flags = ["--out-dir", tmp_path / "out", "--seed", 3, "--mode", "analog", "--no-sbs"]
    assert _prepare(tmp_path, doc, *map(str, flags)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    named = "the config document" if section is None else f"config section {section} "
    assert named in err and "must be a JSON object" in err


def test_integer_too_large_for_a_float_exits_4(tmp_path, capsys):
    # Was a bare OverflowError traceback from math.isfinite.
    assert _prepare(tmp_path, {"device": {"i_on": 10**400}}) == cli.EXIT_CONFIG
    assert "device.i_on must be a finite number > 0" in capsys.readouterr().err


def test_split_shuffle_seed_follows_seed(tmp_path, capsys):
    # Was loaded, then silently overwritten by seed.
    assert config_from_dict({"seed": 5}).split.shuffle_seed == 5
    assert _prepare(tmp_path, {"split": {"shuffle_seed": 5}}) == cli.EXIT_CONFIG
    assert "split.shuffle_seed follows seed" in capsys.readouterr().err


def test_default_config_hash_is_pinned():
    assert config_hash(RunConfig()) == "b22fd5517563"
    assert config_hash(config_from_dict({})) == "b22fd5517563"



def test_config_hash_is_computed_once_per_config(monkeypatch):
    calls, asdict = [], dataclasses.asdict
    monkeypatch.setattr(dataclasses, "asdict", lambda obj: calls.append(obj) or asdict(obj))
    cfg = config_from_dict({"seed": 3})
    assert config_hash(cfg) == config_hash(cfg) != config_hash(RunConfig())
    assert len(calls) == 2
    # A replaced config is another config, with its own hash.
    assert config_hash(dataclasses.replace(cfg, seed=4)) not in (config_hash(cfg), "b22fd5517563")
    assert len(calls) == 3

@pytest.mark.parametrize("make", [
    lambda: DeviceParams(i_on=True),
    lambda: LineTiming(t_precharge=True),
    lambda: QuantSpec(step_volts=True),
], ids=["device", "line", "quant"])
def test_direct_construction_rejects_booleans(make):
    with pytest.raises(ValueError, match=r"^(device|line|quant)\.\w+ must be a finite number"):
        make()
