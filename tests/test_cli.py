import json
from pathlib import Path

import pytest

from cubetree import cli
from cubetree.cli import main
from cubetree.dc import GammaUnresolved, InconsistentPrefixes
from cubetree.structure import LabelStore, UndefinedLabel, VariantMismatch
from cubetree.verify import InvariantBroken


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


SHIPPED_CC = Path(__file__).resolve().parents[1] / "configs" / "cc_faithful.json"


def test_extract_isomorphism_of_a_fact_file_copy_walks_copy_edges(tmp_path):
    """A fact-file adversary has no ground truth, so the excluded strings are
    placed by walking the copy's edges; the written map is pinned."""
    import hashlib

    facts = tmp_path / "copy.facts"
    assert main(["gen-adversary", "--config", str(SHIPPED_CC), "--out", str(facts),
                 "--delay", "2", "--block", "4", "--shift", "1"]) == 0
    data = json.loads(SHIPPED_CC.read_text(encoding="utf-8"))
    data["adversaries"] = [{"kind": "file", "path": "copy.facts"}]
    cfg = write_config(tmp_path, data)
    out = tmp_path / "iso.json"
    assert main(["extract", "--config", str(cfg), "--target", "isomorphism",
                 "--adversary", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["stalls"] == ["no witness for <3>"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ba4a873a4b5312566438340fbbb181b78ff0198f82b7f967ce15b89e1684d699")


@pytest.mark.parametrize("index", ["5", "-1"])
def test_extract_adversary_out_of_range_exits_two(tmp_path, capsys, index):
    assert main([
        "extract", "--config", str(SHIPPED_CC), "--target", "isomorphism",
        "--adversary", index, "--out", str(tmp_path / "iso.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--adversary" in err and "2 adversaries" in err


def test_extract_unstable_matcher_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(CC_CONFIG, horizon=3))
    assert main([
        "extract", "--config", str(cfg), "--target", "isomorphism",
        "--adversary", "0", "--out", str(tmp_path / "iso.json"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ExtractionStalled: no stable M0")


@pytest.mark.parametrize("spec", ["3", "x@1", "3@a", "3@1,b", "1.5@0"])
def test_malformed_omit_label_exits_two(tmp_path, capsys, spec):
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main([
        "gen-adversary", "--config", str(cfg), "--out", str(tmp_path / "copy.facts"),
        "--omit-label", spec,
    ]) == 2
    assert capsys.readouterr().err == "error: --omit-label must be n@j1,j2,...\n"


def test_omit_label_drops_one_label(tmp_path):
    cfg = write_config(tmp_path, CC_CONFIG)
    lines = {}
    for spec in ("", "0@0"):
        out = tmp_path / f"copy{spec}.facts"
        assert main(["gen-adversary", "--config", str(cfg), "--out", str(out),
                     "--omit-label", spec]) == 0
        lines[spec] = set(out.read_text().splitlines())
    assert lines["0@0"] < lines[""]


def test_usage_errors_exit_two(tmp_path, capsys):
    bad = write_config(tmp_path, {"variant": "nope", "horizon": 5})
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    zero = write_config(tmp_path, dict(CC_CONFIG, horizon=0), name="zero.json")
    assert main(["run", "--config", str(zero), "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "y")]) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"
    # A config path, or a fact-file path, that names a directory.
    (tmp_path / "copy.facts").mkdir()
    dir_facts = write_config(tmp_path, dict(CC_CONFIG, adversaries=[
        {"kind": "file", "path": "copy.facts"}]), name="dir_facts.json")
    for config, path in ((tmp_path, tmp_path), (dir_facts, tmp_path / "copy.facts")):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: Is a directory\n"
    # An output path of the wrong kind, or a replay directory without its artifacts.
    cfg = write_config(tmp_path, dict(CC_CONFIG, horizon=5), name="small.json")
    folder = tmp_path / "copy.facts"
    for argv, path, reason in [
        (["run", "--out", str(bad)], bad, "File exists"),
        (["extract", "--target", "q", "--out", str(folder)], folder, "Is a directory"),
        (["gen-adversary", "--out", str(folder)], folder, "Is a directory"),
        (["replay", "--trace", str(folder)], folder / "trace.log", "No such file or directory"),
    ]:
        assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2, argv
        assert capsys.readouterr().err == f"error: cannot use {path}: {reason}\n", argv


def test_an_os_error_naming_no_path_is_not_a_usage_error(tmp_path, monkeypatch):
    """A write that fails on a path already opened, such as a full disk,
    names no file: it propagates as before instead of exiting 2."""
    def full_disk(config):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "run_stages", full_disk)
    cfg = write_config(tmp_path, CC_CONFIG)
    with pytest.raises(OSError, match="No space left on device"):
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_config_that_is_not_json_exits_two_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad} is not JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n")


@pytest.mark.parametrize("data, argv, message", [
    (CC_CONFIG, ["verify", "--suite", "invariants,bogus"], "unknown suite 'bogus'"),
    (CC_CONFIG, ["verify", "--suite", " labeling , none"], "unknown suite 'none'"),
    (CC_CONFIG, ["extract", "--target", "paths"], "path extraction needs a dc run"),
    (DC_CONFIG, ["extract", "--target", "q"], "image-tree extraction needs a cc run"),
    (DC_CONFIG, ["extract", "--target", "isomorphism"], "isomorphism extraction needs a cc run"),
], ids=["unknown-suite", "none-among-suites", "paths-of-cc", "q-of-dc", "isomorphism-of-dc"])
def test_bad_selection_exits_two_before_running(tmp_path, capsys, monkeypatch, data, argv,
                                                message):
    """A bad suite name or extraction target is refused before the
    construction runs: no result line is printed, and nothing is run."""
    def not_run(config):
        raise AssertionError("ran the construction")

    monkeypatch.setattr(cli, "run_stages", not_run)
    cfg = write_config(tmp_path, data)
    out = ["--out", str(tmp_path / "out.json")] if argv[0] == "extract" else []
    assert main([argv[0], "--config", str(cfg), *argv[1:], *out]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: {message}\n"


def test_verify_empty_suite_selection(tmp_path, capsys):
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main(["verify", "--config", str(cfg), "--suite", "none"]) == 0
    assert capsys.readouterr().out == ""


def _slot(**fields):
    """DC_CONFIG (one mother slot) with one functional: fields over a "never"
    functional bound to mother 0 at round 2."""
    return dict(DC_CONFIG, functionals=[dict({"mother": 0, "round": 2, "kind": "never"},
                                             **fields)])


def _block_rotate(block):
    perm = {"kind": "block_rotate", "block": block, "shift": 1}
    return [{"kind": "faithful", "label": "perm", "permutation": perm}]


def _with_defect(base, **defect):
    return dict(base, adversaries=[{"kind": "faithful", "defects": [defect]}])


@pytest.mark.parametrize("data, key", [
    (dict(CC_CONFIG, universe={"rate": 0}), "universe.rate"),
    (dict(CC_CONFIG, universe={"rate": 1, "f_rate": 0}), "universe.f_rate"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "periodic", "period": 0}}),
     "phi.default.period"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": {"3": {"kind": "periodic", "period": 0}}}),
     "phi.rules.3.period"),
    (dict(CC_CONFIG, adversaries=_block_rotate(0)), "permutation.block"),
    (dict(CC_CONFIG, universe={"cap": -1}), "universe.cap"),
    (dict(CC_CONFIG, universe={"f_cap": -2}), "universe.f_cap"),
    (dict(DC_CONFIG, phi={"range": -2}), "phi.range"),
    (dict(DC_CONFIG, witness_base=-3), "witness_base"),
    (_slot(kind="bit_probe", modulus=0), "functionals[0].modulus"),
    (_slot(kind="bit_probe", coord=-1), "functionals[0].coord"),
    (_slot(kind="bit_probe", pos=-1), "functionals[0].pos"),
    (_slot(kind="length_threshold", min_len=-1), "functionals[0].min_len"),
    (_slot(mother=1), "functionals[0].mother"),
    (_slot(round=0), "functionals[0].round"),
    # A defect's label, colour and step are naturals: a negative one would
    # drop nothing, yet mark the copy defective and its isomorphism unchecked.
    (_with_defect(CC_CONFIG, kind="omit_label", n=-1, sigma=[]), "defects[0].n"),
    (_with_defect(DC_CONFIG, kind="break_p", sigma=[], j=-2), "defects[0].j"),
    (_with_defect(CC_CONFIG, kind="freeze_after", step=-3), "defects[0].step"),
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


# Each line loaded, and verify exited 0, before fact lines were range-checked.
OUT_OF_RANGE_FACTS = ["-5 W <> 7 0", "0 S -2 0", "0 E -1 0 -4", "0 P 3 -9"]


@pytest.mark.parametrize("data, good, foreign", [
    (CC_CONFIG, "0 W <> - 0", "0 W <> 0 0"),
    (DC_CONFIG, "0 W <> 0 0", "0 W <> - 0"),
], ids=["cc", "dc"])
def test_fact_lines_out_of_range_exit_two(tmp_path, capsys, data, good, foreign):
    """A negative step, label, color or element, or a W sort the run does
    not have, ends verify with exit 2 and one line naming the file and the
    line."""
    cfg = write_config(tmp_path, dict(data, adversaries=[{"kind": "file", "path": "copy.facts"}]))
    facts = tmp_path / "copy.facts"
    cases = [(OUT_OF_RANGE_FACTS, 1)] + [([good, line], 2)
                                         for line in OUT_OF_RANGE_FACTS + [foreign]]
    for lines, k in cases:
        facts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["verify", "--config", str(cfg), "--suite", "invariants,isomorphism"])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and f"copy.facts, line {k}:" in err, lines
    facts.write_text(good + "\n", encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--suite", "invariants"]) == 0


def _with_adversary(**spec):
    return dict(CC_CONFIG, adversaries=[dict({"kind": "faithful"}, **spec)])


def _with_functional(**drop):
    functional = {"mother": 0, "round": 2, "kind": "length_threshold", "min_len": 3}
    return dict(DC_CONFIG, functionals=[{k: v for k, v in functional.items() if k not in drop}])


@pytest.mark.parametrize("data, key", [
    (dict(CC_CONFIG, adversaries=[{"kind": "file"}]), "adversaries[0].path"),
    (dict(DC_CONFIG, phi={"default": {"kind": "never"}}), "phi.range"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"s0": 6}}), "phi.default.kind"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": {"3": {"kind": "until"}}}), "phi.rules.3.s0"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "periodic"}}), "phi.default.period"),
    (_with_functional(mother=True), "functionals[0].mother"),
    (_with_functional(round=True), "functionals[0].round"),
    (_with_functional(kind=True), "functionals[0].kind"),
    (_with_functional(min_len=True), "functionals[0].min_len"),
    (_with_adversary(permutation={"kind": "block_rotate", "shift": 1}),
     "adversaries[0].permutation.block"),
    (_with_adversary(permutation={"kind": "block_rotate", "block": 2}),
     "adversaries[0].permutation.shift"),
    (_with_adversary(defects=[{"n": 0, "sigma": [0]}]), "adversaries[0].defects[0].kind"),
    (_with_adversary(defects=[{"kind": "omit_label", "sigma": [0]}]),
     "adversaries[0].defects[0].n"),
    (_with_adversary(defects=[{"kind": "omit_label", "n": 0}]),
     "adversaries[0].defects[0].sigma"),
    (_with_adversary(defects=[{"kind": "break_p", "sigma": []}]),
     "adversaries[0].defects[0].j"),
    (_with_adversary(defects=[{"kind": "freeze_after"}]), "adversaries[0].defects[0].step"),
    (dict(CC_CONFIG, tree={"nodes": [[0]], "branches": [{"prefix": [0]}]}),
     "tree.branches[0].period"),
])
def test_missing_required_key_exits_two(tmp_path, capsys, data, key):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {key} is required\n"


def test_negative_delay_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, _with_adversary(delay=-4))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "adversaries[0].delay" in err
    zero = write_config(tmp_path, dict(_with_adversary(delay=0), horizon=8), name="zero.json")
    assert main(["run", "--config", str(zero), "--out", str(tmp_path / "zero")]) == 0


@pytest.mark.parametrize("flag, value", [("--delay", "-4"), ("--block", "0"),
                                         ("--block", "-3")])
def test_gen_adversary_flags_below_their_floor_exit_two(tmp_path, capsys, flag, value):
    """A block below 1 would write an identity copy, as a delay below 0 would
    write facts before their stage: both are refused before the run."""
    good = write_config(tmp_path, dict(CC_CONFIG, horizon=8), name="good.json")
    facts = tmp_path / "copy.facts"
    rc = main(["gen-adversary", "--config", str(good), "--out", str(facts), flag, value])
    assert rc == 2 and not facts.exists()
    floor = 0 if flag == "--delay" else 1
    assert capsys.readouterr().err == f"error: {flag} must be at least {floor}, got {value}\n"


@pytest.mark.parametrize("error", [
    GammaUnresolved, InconsistentPrefixes, InvariantBroken, UndefinedLabel, VariantMismatch,
])
def test_internal_errors_exit_three(tmp_path, capsys, monkeypatch, error):
    def broken(config):
        raise error("broken on purpose")

    monkeypatch.setattr(cli, "run_stages", broken)
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {error.__name__}: broken on purpose\n"


def test_grow_at_a_lower_stage_exits_three(tmp_path, capsys, monkeypatch):
    def out_of_order(config):
        store = LabelStore("cc")
        store.grow((1,), None, 5)
        store.grow((1,), None, 4)

    monkeypatch.setattr(cli, "run_stages", out_of_order)
    cfg = write_config(tmp_path, CC_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: GrowOutOfOrder: grow of <1> at stage 4 after one at stage 5\n"


def _functional_with(**fields):
    return dict(DC_CONFIG, functionals=[dict(_with_functional()["functionals"][0], **fields)])


@pytest.mark.parametrize("data, key", [
    ([1], "config"),
    (dict(CC_CONFIG, adversaries=[3]), "adversaries[0]"),
    (_with_adversary(permutation=[8, 3]), "adversaries[0].permutation"),
    (_with_adversary(defects=["omit_label"]), "adversaries[0].defects[0]"),
    (dict(DC_CONFIG, functionals=[2]), "functionals[0]"),
    (dict(CC_CONFIG, tree=[[0]]), "tree"),
    (dict(CC_CONFIG, tree={"branches": [[0]]}), "tree.branches[0]"),
    (dict(CC_CONFIG, universe=4), "universe"),
    (dict(CC_CONFIG, true_path=3), "true_path"),
    (dict(DC_CONFIG, phi="never"), "phi"),
    (dict(DC_CONFIG, phi={"range": 8, "default": "never"}), "phi.default"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": [1]}), "phi.rules"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": {"3": 1}}), "phi.rules.3"),
])
def test_non_object_entry_exits_two(tmp_path, capsys, data, key):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a JSON object, got ") and err.count("\n") == 1


@pytest.mark.parametrize("data, key, value", [
    (_with_adversary(delay="abc"), "adversaries[0].delay", "abc"),
    (dict(CC_CONFIG, horizon="x"), "horizon", "x"),
    (dict(DC_CONFIG, mothers="two"), "mothers", "two"),
    (dict(CC_CONFIG, universe={"cap": "z"}), "universe.cap", "z"),
    (dict(CC_CONFIG, true_path={"threshold": "t"}), "true_path.threshold", "t"),
    (_with_adversary(permutation={"kind": "block_rotate", "block": 2, "shift": "s"}),
     "adversaries[0].permutation.shift", "s"),
    (_with_adversary(defects=[{"kind": "freeze_after", "step": "s"}]),
     "adversaries[0].defects[0].step", "s"),
    (dict(DC_CONFIG, phi={"range": "r"}), "phi.range", "r"),
    (dict(DC_CONFIG, phi={"range": 8, "rules": {"x": {"kind": "never"}}}), "phi.rules key", "x"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "until", "s0": "s"}}),
     "phi.default.s0", "s"),
    (_functional_with(min_len="m"), "functionals[0].min_len", "m"),
    (_functional_with(round="r"), "functionals[0].round", "r"),
])
def test_non_integer_names_its_key(tmp_path, capsys, data, key, value):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("data, key, value", [
    (dict(CC_CONFIG, horizon=12.7), "horizon", 12.7),
    (dict(CC_CONFIG, horizon=True), "horizon", True),
    (dict(CC_CONFIG, horizon="12"), "horizon", "12"),
    (dict(CC_CONFIG, true_path={"threshold": 3, "window": True}), "true_path.window", True),
    (dict(CC_CONFIG, true_path={"threshold": 2.5}), "true_path.threshold", 2.5),
    (dict(DC_CONFIG, mothers=2.9), "mothers", 2.9),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "until", "s0": False}}),
     "phi.default.s0", False),
])
def test_only_json_integers_are_integers(tmp_path, capsys, data, key, value):
    """A float, a boolean or a string is not read as an integer, however
    close it is to one."""
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("threshold", [0, -4])
def test_true_path_threshold_below_one_exits_two(tmp_path, capsys, threshold):
    cfg = write_config(tmp_path, dict(CC_CONFIG, true_path={"threshold": threshold}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err \
        == f"error: true_path.threshold must be at least 1, got {threshold}\n"


@pytest.mark.parametrize("data, key", [
    (dict(CC_CONFIG, univrse={"rate": 2}), "univrse"),
    (dict(CC_CONFIG, universe={"rte": 2}), "universe.rte"),
    (_with_adversary(dely=2), "adversaries[0].dely"),
    (_with_adversary(kind="file", path="copy.facts", delay=2), "adversaries[0].delay"),
    (_with_adversary(defects=[{"kind": "freeze_after", "step": 3, "n": 0}]),
     "adversaries[0].defects[0].n"),
    (dict(DC_CONFIG, phi={"range": 8, "default": {"kind": "never", "s0": 3}}),
     "phi.default.s0"),
    (_functional_with(period=3), "functionals[0].period"),
    (dict(CC_CONFIG, mothers=2), "mothers"),
    (dict(CC_CONFIG, phi=DC_CONFIG["phi"]), "phi"),
    (dict(CC_CONFIG, witness_base=5), "witness_base"),
    (dict(DC_CONFIG, tree=CC_CONFIG["tree"]), "tree"),
])
def test_unknown_key_exits_two(tmp_path, capsys, data, key):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key} is not a known key\n"


def _branch(**fields):
    return dict(CC_CONFIG, tree={"branches": [dict({"prefix": [0], "period": [2]}, **fields)]})


ARRAY, NATURALS, STRING = "a JSON array", "an array of naturals", "a string"


@pytest.mark.parametrize("data, key, kind", [
    (dict(CC_CONFIG, adversaries=3), "adversaries", ARRAY),
    (dict(DC_CONFIG, functionals={"mother": 0}), "functionals", ARRAY),
    (_with_adversary(defects={"kind": "omit_label"}), "adversaries[0].defects", ARRAY),
    (dict(CC_CONFIG, tree={"nodes": 3}), "tree.nodes", ARRAY),
    (dict(CC_CONFIG, tree={"branches": {"prefix": [0]}}), "tree.branches", ARRAY),
    (dict(CC_CONFIG, tree={"nodes": [[0], 5]}), "tree.nodes[1]", ARRAY),
    (dict(CC_CONFIG, tree={"nodes": [[0, -1]]}), "tree.nodes[0]", NATURALS),
    (_branch(prefix="x"), "tree.branches[0].prefix", ARRAY),
    (_branch(prefix=["x"]), "tree.branches[0].prefix", NATURALS),
    (_branch(period=[1.5]), "tree.branches[0].period", NATURALS),
    (_with_adversary(defects=[{"kind": "omit_label", "n": 0, "sigma": 0}]),
     "adversaries[0].defects[0].sigma", ARRAY),
    (_with_adversary(defects=[{"kind": "break_p", "sigma": [True], "j": 0}]),
     "adversaries[0].defects[0].sigma", NATURALS),
    (_branch(period=[]), "tree.branches[0].period", "a nonempty array of naturals"),
    (_with_adversary(label=[1]), "adversaries[0].label", STRING),
    (dict(CC_CONFIG, adversaries=[{"kind": "file", "path": 7}]), "adversaries[0].path", STRING),
])
def test_non_list_or_non_naturals_exits_two(tmp_path, capsys, data, key, kind):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be {kind}, got ") and err.count("\n") == 1


@pytest.mark.parametrize("window, message", [
    ("abc", "true_path.window must be an integer, got 'abc'"),
    (0, "true_path.window must be at least 1, got 0"),
    (-3, "true_path.window must be at least 1, got -3"),
])
def test_bad_true_path_window_exits_two(tmp_path, capsys, window, message):
    data = json.loads(SHIPPED_CC.read_text(encoding="utf-8"))
    data["true_path"]["window"] = window
    cfg = write_config(tmp_path, data)
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("data, expected", [
    (_with_defect(CC_CONFIG, kind="omit_label", n=0, sigma=[], sort="x"),
     "null in a cc config, got 'x'"),
    (_with_defect(CC_CONFIG, kind="break_p", sigma=[], j=0, sort=0),
     "null in a cc config, got 0"),
    (_with_defect(DC_CONFIG, kind="omit_label", n=0, sigma=[], sort=2),
     "null or 0 or 1 in a dc config, got 2"),
    (_with_defect(DC_CONFIG, kind="break_p", sigma=[], j=0, sort="1"),
     "null or 0 or 1 in a dc config, got '1'"),
])
def test_defect_sort_outside_the_variant_exits_two(tmp_path, capsys, data, expected):
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: adversaries[0].defects[0].sort must be {expected}\n"


def test_defect_sort_of_the_variant_is_kept():
    from cubetree.config import config_from_dict

    data = _with_defect(DC_CONFIG, kind="omit_label", n=0, sigma=[], sort=1)
    assert config_from_dict(data).adversaries[0].defects[0].sort == 1
    assert config_from_dict(_with_defect(CC_CONFIG, kind="omit_label", n=0, sigma=[],
                                         sort=None)).adversaries[0].defects[0].sort is None


# -- chunked artifacts ----------------------------------------------------------

SHIPPED_DC = SHIPPED_CC.parent / "dc_diagonal.json"


@pytest.fixture(scope="module", params=[(SHIPPED_CC, 80), (SHIPPED_DC, 40)],
                ids=["cc_faithful@80", "dc_diagonal@40"])
def sample_run(request):
    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages

    path, horizon = request.param
    data = json.loads(path.read_text(encoding="utf-8"))
    return run_stages(config_from_dict(dict(data, horizon=horizon)))


@pytest.mark.parametrize("chunk", [1, 3, "trace length"])
def test_chunked_artifacts_are_the_joined_lines(tmp_path, monkeypatch, sample_run, chunk):
    """Whatever the chunk size, and so wherever its boundaries fall, each
    written text file is its lines joined whole."""
    lines = len(sample_run.trace) if chunk == "trace length" else chunk
    monkeypatch.setattr(cli, "CHUNK_LINES", lines, raising=False)
    cli.write_artifacts(sample_run, tmp_path)
    assert (tmp_path / "trace.log").read_bytes() == (
        "\n".join(sample_run.trace_lines()) + "\n").encode()
    assert (tmp_path / "snapshot.log").read_bytes() == (
        "\n".join(sample_run.snapshot().dump_lines()) + "\n").encode()


@pytest.fixture(scope="module", params=[("DC_MODULUS", 150), (SHIPPED_CC, 80), (SHIPPED_DC, 40)],
                ids=["DC_MODULUS@150", "cc_faithful@80", "dc_diagonal@40"])
def export_run(request):
    """A run to export: the benchmark's dc_modulus config, and the two
    shipped configs, whose cc run has Idle tails."""
    import test_acceptance
    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages

    source, horizon = request.param
    if isinstance(source, str):
        data = getattr(test_acceptance, source)
    else:
        data = json.loads(source.read_text(encoding="utf-8"))
    return run_stages(config_from_dict(dict(data, horizon=horizon)))


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_trace_log_is_the_reference_format_of_every_event(monkeypatch, export_run, chunk):
    """Differential check of the one-pass writer: wherever the chunks are
    cut, trace.log is each expanded event written by the reference
    formatter, which caches nothing."""
    from test_records import reference_format_event

    monkeypatch.setattr(cli, "CHUNK_LINES", chunk, raising=False)
    texts = dict(cli.artifact_texts(export_run))
    written = "".join(texts["trace.log"]).encode()
    events = list(export_run.trace)
    assert written == ("\n".join(map(reference_format_event, events)) + "\n").encode()


def test_only_the_suites_that_read_the_true_path_compute_it(monkeypatch, sample_run):
    calls = []
    true_path_approx = cli.true_path_approx

    def counted(*args, **kwargs):
        calls.append(args)
        return true_path_approx(*args, **kwargs)

    monkeypatch.setattr(cli, "true_path_approx", counted)
    assert cli.run_suite(sample_run, "invariants").ok
    assert not calls
    cli.run_suite(sample_run, "labeling")
    assert len(calls) == 1


@pytest.mark.parametrize("chunk", [1, 3])
def test_gen_adversary_file_is_the_joined_fact_lines(tmp_path, monkeypatch, chunk):
    from cubetree.adversary import make_faithful_copy
    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages

    monkeypatch.setattr(cli, "CHUNK_LINES", chunk, raising=False)
    facts = tmp_path / "copy.facts"
    assert main(["gen-adversary", "--config", str(write_config(tmp_path, CC_CONFIG)),
                 "--out", str(facts), "--delay", "2"]) == 0
    adv = make_faithful_copy(run_stages(config_from_dict(CC_CONFIG)), delay=2)
    assert facts.read_bytes() == ("\n".join(adv.stream.to_lines()) + "\n").encode()
    # The lines are formatted as the writer reads them, not held in a list.
    lines = adv.stream.to_lines()
    assert iter(lines) is lines


@pytest.mark.parametrize("name", ["trace.log", "snapshot.log"])
@pytest.mark.parametrize("damage", ["one byte inside a chunk", "cut at a chunk end"])
def test_replay_reports_damage_at_any_chunk_position(tmp_path, monkeypatch, capsys,
                                                     name, damage):
    monkeypatch.setattr(cli, "CHUNK_LINES", 3, raising=False)
    cfg = write_config(tmp_path, CC_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / name
    data = path.read_bytes()
    # Byte offsets of each line start; chunk 2 holds lines 3, 4 and 5.
    starts = [0]
    for line in data.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    assert len(starts) > 8
    if damage == "one byte inside a chunk":
        at = (starts[4] + starts[5]) // 2
        data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    else:
        data = data[:starts[6]]
    path.write_bytes(data)
    capsys.readouterr()
    assert main(["replay", "--config", str(cfg), "--trace", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{name} differs", "replay DIFFERS"]


# Horizons of the benchmark's cc_match and dc_modulus workloads, which run
# these configs.
BENCHMARK_RUNS = {"CC_FAITHFUL": 200, "DC_MODULUS": 150}


@pytest.mark.parametrize("name", list(BENCHMARK_RUNS))
def test_export_and_trace_checks_stay_below_a_third_of_the_bytes_written(tmp_path, name):
    """Counted memory gate: the peak allocated while writing the artifacts,
    and while checking the trace invariants, each stays below a third of the
    bytes written.  Building an artifact whole costs about twice its bytes,
    and a copied address per node costs about as much as the trace text."""
    import tracemalloc

    import test_acceptance
    from cubetree.config import config_from_dict
    from cubetree.engine import run_stages
    from cubetree.verify import check_trace_invariants

    data = dict(getattr(test_acceptance, name), horizon=BENCHMARK_RUNS[name])
    result = run_stages(config_from_dict(data))
    peaks = {}
    tracemalloc.start()
    try:
        for step, call in (("write_artifacts", lambda: cli.write_artifacts(result, tmp_path)),
                           ("check_trace_invariants", lambda: check_trace_invariants(result))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outcome = call()
            peaks[step] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert outcome.ok
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert written > 5_000_000
    assert peaks["write_artifacts"] < written / 3, (peaks, written)
    assert peaks["check_trace_invariants"] < written / 3, (peaks, written)


@pytest.mark.parametrize("name", list(BENCHMARK_RUNS))
def test_export_formats_each_address_and_string_once(tmp_path, monkeypatch, name):
    """Counted gate: during one write_artifacts, the address of each node
    outside an Idle chain is formatted at most once, and each string object
    in the trace records at most once, however many events name it.  A chain
    node's text is its head's plus "/o" steps."""
    from collections import Counter

    import test_acceptance
    from cubetree import engine
    from cubetree.config import config_from_dict
    from cubetree.engine import Node, run_stages

    data = dict(getattr(test_acceptance, name), horizon=BENCHMARK_RUNS[name])
    result = run_stages(config_from_dict(data))
    addrs, strings = Counter(), Counter()
    format_addr, format_string = engine.format_addr, engine.format_string

    def counted_addr(addr):
        addrs[addr] += 1
        return format_addr(addr)

    def counted_string(sigma):
        strings[id(sigma)] += 1
        return format_string(sigma)

    monkeypatch.setattr(engine, "format_addr", counted_addr)
    monkeypatch.setattr(engine, "format_string", counted_string)
    cli.write_artifacts(result, tmp_path)
    records = result.trace.records
    named = {p.addr for rec in records for p in rec if type(p) is Node}
    chained = {node.addr for chain in result.trace.chains.values() for node in chain[1:]}
    assert set(addrs) == named - chained
    assert max(addrs.values()) == 1
    assert strings and set(strings) <= {id(p) for rec in records for p in rec if type(p) is tuple}
    assert max(strings.values()) == 1
