"""Golden digests: the artifacts of fixed configs stay byte-identical.

Each case runs a config to a fixed horizon, writes its artifacts with
`cli.write_artifacts`, and compares the SHA-256 of `trace.log`,
`snapshot.log` and `meta.json` against digests recorded before any
refactor.  A behaviour-preserving change leaves every digest as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cubetree import cli
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
