import json

import pytest

from cubetree.cli import main


CC_CONFIG = {
    "variant": "cc",
    "horizon": 30,
    "universe": {"rate": 1, "cap": 3, "f_rate": 1, "f_cap": 2},
    "tree": {"nodes": [[0], [1], [0, 0]]},
    "adversaries": [{"kind": "faithful", "label": "ident", "delay": 1}],
    "true_path": {"threshold": 3},
}

DC_CONFIG = {
    "variant": "dc",
    "horizon": 40,
    "universe": {"rate": 4, "cap": 3, "f_rate": 4, "f_cap": 2},
    "mothers": 1,
    "phi": {"range": 8, "default": {"kind": "until", "s0": 6}},
    "functionals": [
        {"mother": 0, "round": 2, "kind": "length_threshold", "min_len": 3, "value": 0}
    ],
    "adversaries": [],
    "true_path": {"threshold": 3},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trace.log").exists()
    assert (out / "snapshot.log").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["variant"] == "cc"
    assert meta["true_path"][0]["label"] == "N<>"


def test_replay_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["replay", "--config", str(cfg), "--trace", str(out)]) == 0


def test_replay_detects_tampering(tmp_path):
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    trace = out / "trace.log"
    trace.write_text(trace.read_text() + "tampered\n")
    assert main(["replay", "--config", str(cfg), "--trace", str(out)]) == 1


def test_replay_compares_meta(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    meta = out / "meta.json"
    meta.write_text(meta.read_text().replace('"version"', '"versions"'))
    assert main(["replay", "--config", str(cfg), "--trace", str(out)]) == 1
    assert "meta.json differs" in capsys.readouterr().out


def test_verify_full_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main(["verify", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[invariants] pass") for line in lines)


def test_verify_selected_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, DC_CONFIG)
    assert main(["verify", "--config", str(cfg), "--suite", "invariants"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[invariants]") for line in lines)


def test_extract_q(tmp_path):
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "q.json"
    assert main(["extract", "--config", str(cfg), "--target", "q", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["is_tree"]
    assert data["phi"]["<>"] == "<>"
    assert len(data["phi"]) == 4


def test_extract_paths(tmp_path):
    cfg = write_config(tmp_path, DC_CONFIG)
    out = tmp_path / "paths.json"
    assert main(["extract", "--config", str(cfg), "--target", "paths", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["f"] and data["g"]
    assert data["witnesses_enumerated"]


def test_extract_isomorphism(tmp_path):
    cfg = write_config(tmp_path, dict(CC_CONFIG, horizon=40))
    out = tmp_path / "iso.json"
    rc = main([
        "extract", "--config", str(cfg), "--target", "isomorphism",
        "--adversary", "0", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["map"]
    assert data["stalls"] == []


def test_gen_adversary_then_run_from_file(tmp_path):
    cfg = write_config(tmp_path, CC_CONFIG)
    facts = tmp_path / "copy.facts"
    assert main([
        "gen-adversary", "--config", str(cfg), "--out", str(facts), "--delay", "2",
    ]) == 0
    assert facts.read_text().splitlines()
    file_cfg = dict(CC_CONFIG)
    file_cfg["adversaries"] = [{"kind": "file", "path": "copy.facts"}]
    cfg2 = write_config(tmp_path, file_cfg, name="config2.json")
    out = tmp_path / "out2"
    assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 0


def test_usage_errors_exit_two(tmp_path):
    bad = write_config(tmp_path, {"variant": "nope", "horizon": 5})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "y")]) == 2
    zero = write_config(tmp_path, dict(CC_CONFIG, horizon=0), name="zero.json")
    assert main(["run", "--config", str(zero), "--out", str(tmp_path / "z")]) == 2


def test_verify_empty_suite_selection(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main(["verify", "--config", str(cfg), "--suite", "none"]) == 0
    assert capsys.readouterr().out == ""


def _block_rotate(block):
    perm = {"kind": "block_rotate", "block": block, "shift": 1}
    return [{"kind": "faithful", "label": "perm", "permutation": perm}]


@pytest.mark.parametrize("data, key", [
    (dict(CC_CONFIG, universe={"rate": 0}), "universe.rate"),
    (dict(CC_CONFIG, universe={"rate": 1, "f_rate": 0}), "universe.f_rate"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "periodic", "period": 0}}),
     "phi.default.period"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": {"3": {"kind": "periodic", "period": 0}}}),
     "phi.rules.3.period"),
    (dict(CC_CONFIG, adversaries=_block_rotate(0)), "permutation.block"),
])
def test_values_below_one_exit_two(tmp_path, capsys, data, key):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


def test_truncated_fact_line_exits_two(tmp_path, capsys):
    (tmp_path / "copy.facts").write_text("1 W <> - 0\n3 W\n", encoding="utf-8")
    file_cfg = dict(CC_CONFIG, adversaries=[{"kind": "file", "path": "copy.facts"}])
    cfg = write_config(tmp_path, file_cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "copy.facts, line 2" in err
