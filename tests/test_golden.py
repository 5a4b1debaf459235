"""Golden digests: the artifacts of fixed configs stay byte-identical.

Each case runs a config to a fixed horizon, writes its artifacts with
`cli.write_artifacts`, and compares the SHA-256 of `trace.log`,
`snapshot.log` and `meta.json` against digests recorded before any
refactor.  The cases with adversaries also pin each live adversary's fact
stream, and check that a faithful copy replayed after the run with the same
spec yields the same facts.  A behaviour-preserving change leaves every
digest as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cubetree import cli
from cubetree.adversary import make_faithful_copy
from cubetree.config import config_from_dict
from cubetree.engine import Engine
from test_acceptance import CC_DEFECTIVE, CC_FAITHFUL, DC_DIAG, DC_MODULUS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sample(name):
    return json.loads((CONFIGS / name).read_text(encoding="utf-8"))


CASES = {
    "cc_faithful.json@80": (_sample("cc_faithful.json"), 80),
    "dc_diagonal.json@40": (_sample("dc_diagonal.json"), 40),
    "CC_FAITHFUL@60": (CC_FAITHFUL, 60),
    "CC_DEFECTIVE@60": (CC_DEFECTIVE, 60),
    "DC_MODULUS@60": (DC_MODULUS, 60),
    "DC_DIAG@60": (DC_DIAG, 60),
}

GOLDEN = {
    "CC_DEFECTIVE@60": {
        "trace.log": "e3110360c0edb0925d859921805562b13c5a7816599f055043a5006ae3c708d9",
        "snapshot.log": "5991142bea7bbb01e70c3282c90259c487beb06f9a78cb704a6222a791e9810b",
        "meta.json": "f1715a42013c27e62bb5ac93d76129073a1553eb3a50b8ca4374588355642783",
    },
    "CC_FAITHFUL@60": {
        "trace.log": "aa0e370bcc9fe7ee5d62bcc5b28efd18774097bc40b2443b9b53126dcf4c6add",
        "snapshot.log": "b37f49e7d994f5f2a257620dd00d584e71b44219e64919152110f4dd313c1f6c",
        "meta.json": "2a1244151b1e2851e6dfaff8066a772bf2f0d115ec39fbeb94574fda3382f405",
    },
    "DC_DIAG@60": {
        "trace.log": "dae230f9816279073f68406932121c36265b6d733585b8a98557b926eadf29b3",
        "snapshot.log": "86d54451cb449c4d4d52e0561da81884e9f0368b9c6eb569f95a65294d1f6545",
        "meta.json": "58d80c4e404d02b9936751385aea5cfbac19e365a3d1dcaa31ffe70b5ba80fbc",
    },
    "DC_MODULUS@60": {
        "trace.log": "c2f4c3b3e196a27ec79832eff564c5b38612adc5aefb7a835ecc3495185210e1",
        "snapshot.log": "6739f3fb96ae52a4c970845dde5cc4b17985f7b52b79a44c1f736e0894041bbc",
        "meta.json": "4b602bbfa521ee908c56b4acfe67f600025c405a9d31c494bbb3e2643b280ad6",
    },
    "cc_faithful.json@80": {
        "trace.log": "f1acf9072b03b6ea3d880eaa80332b728074e2d7691c3c6da50081c8c584fe95",
        "snapshot.log": "e17e4ba16ec4579fe7b39ef5df9dfaa630c764e62489107cec865a982357994d",
        "meta.json": "ca9333696eb50581f0a56163cda6e48bb54b8194e93f853ad7a9aa1553c8f58b",
    },
    "dc_diagonal.json@40": {
        "trace.log": "0a959101b5a290a8d0876cb173f560fd8c814f1a83fd0a25cc8d9e78da9604bf",
        "snapshot.log": "c9896fd2ca917aa841575cdd731835ccfcb11b2814b21116a42be11e975e08f4",
        "meta.json": "8446a066726bd7d48a2b5038b525ea3a87e98045dd640684e398f270e73d9458",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests(case, tmp_path):
    data, horizon = CASES[case]
    result = Engine(config_from_dict(dict(data, horizon=horizon))).run()
    cli.write_artifacts(result, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("trace.log", "snapshot.log", "meta.json")
    }
    assert digests == GOLDEN[case]


# The cases with adversaries, plus each adversary config at a shorter and a
# longer horizon: a fact that appears at one horizon only still gets pinned.
FACT_CASES = {
    **{case: CASES[case] for case in CASES if CASES[case][0]["adversaries"]},
    "CC_DEFECTIVE@25": (CC_DEFECTIVE, 25),
    "CC_DEFECTIVE@150": (CC_DEFECTIVE, 150),
    "CC_FAITHFUL@25": (CC_FAITHFUL, 25),
    "CC_FAITHFUL@150": (CC_FAITHFUL, 150),
    "cc_faithful.json@30": (_sample("cc_faithful.json"), 30),
    "cc_faithful.json@160": (_sample("cc_faithful.json"), 160),
    "dc_diagonal.json@20": (_sample("dc_diagonal.json"), 20),
    "dc_diagonal.json@60": (_sample("dc_diagonal.json"), 60),
}

# SHA-256 of each live adversary's fact lines, in config order.
FACT_GOLDEN = {
    "CC_DEFECTIVE@60": [
        "6f0772b2bf8130168b1ad3f147ab1ead9c87f7e364479583bdc60ef89dca9e89",
    ],
    "CC_FAITHFUL@60": [
        "ef8f15fcde03e853dfdf9c1b13e5bce427d49bffa8a043eef8a0b2f90bcb06ba",
        "b9e85df672e3734a70903e80f575ee9adf9fdc47e1cd5d5096ace8651b04a7b4",
    ],
    "cc_faithful.json@80": [
        "397fbd2ed1b86950bf1030de00b3a259733fbe489d5f2e3d60ca146654b939b2",
        "48efa083bd05539acbdff157adf1aba92d21613da9661e2b3c3ec31908a3c505",
    ],
    "dc_diagonal.json@40": [
        "04b1749f399168676c5b5228ed86400f8f4440f200af1f02478417e2556c9270",
    ],
    "CC_DEFECTIVE@25": [
        "31199421fc9da7357465391504d0ee70bd8482846ff76761f8ec6b312c83361a",
    ],
    "CC_DEFECTIVE@150": [
        "a8dd9beb8fe5d3077a7bdcd4dc0f433c7d5234256c904c15aef7dc510658d2e2",
    ],
    "CC_FAITHFUL@25": [
        "41e20831644f63e588e0f91f1ce8c6fd2d6180450e2db1e94de6e05bac4088e3",
        "bffb0c8a0305f2ff6599393ede48f01b6c98039fe854d27176ef78f5f08686ad",
    ],
    "CC_FAITHFUL@150": [
        "e452305eadb6408773d63dc88be83a2a991f7e3bcaea1d270cef20163845a121",
        "755dacf2ee01373ccd4a056baf7f3010a0a351ec3fbc40577b5273c6bbb96dcc",
    ],
    "cc_faithful.json@30": [
        "af20e062ba9071b5a9818330820ee4c024121ff92758da33841862b2472fdaf0",
        "6d91db55fd436aaa34c922850989185f2f448906040d4e15cfeab64ef70065e2",
    ],
    "cc_faithful.json@160": [
        "a46b72cc88785508c2fa32487b0d593fd460614a7766c6473288fe715a193c6e",
        "bdb3e8d868b6bd4403b961ac8ab22f30815cf94c004b4c05f111c384d3152eaa",
    ],
    "dc_diagonal.json@20": [
        "8fd8adfd081f24aa4b1615027c5cccb26c33cf4229373d12813b96e6aa8d21b5",
    ],
    "dc_diagonal.json@60": [
        "efeff02910dab58fe7cef35427a289bd12c063efdfaf80065dec50bae719233b",
    ],
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(FACT_CASES))
def test_fact_stream_digests(case):
    data, horizon = FACT_CASES[case]
    config = config_from_dict(dict(data, horizon=horizon))
    result = Engine(config).run()
    live = [list(adv.stream.to_lines()) for adv in result.adversaries]
    assert [_sha("\n".join(lines) + "\n") for lines in live] == FACT_GOLDEN[case]
    for spec, lines in zip(config.adversaries, live):
        assert spec.kind == "faithful"
        replayed = make_faithful_copy(result, spec.permutation, spec.delay,
                                      spec.defects, spec.label)
        assert list(replayed.stream.to_lines()) == lines
