from cubetree.config import config_from_dict


def cc_config(**overrides):
    data = {
        "variant": "cc",
        "horizon": 12,
        "universe": {"rate": 1, "cap": 3, "f_rate": 1, "f_cap": 2},
        "tree": {"nodes": [[0], [1], [0, 0], [0, 1]]},
        "adversaries": [],
        "true_path": {"threshold": 3},
    }
    data.update(overrides)
    return config_from_dict(data)


def dc_config(**overrides):
    data = {
        "variant": "dc",
        "horizon": 30,
        "universe": {"rate": 4, "cap": 3, "f_rate": 4, "f_cap": 2},
        "adversaries": [],
        "mothers": 1,
        "phi": {"range": 6, "default": {"kind": "until", "s0": 6}},
        "functionals": [],
        "true_path": {"threshold": 3},
    }
    data.update(overrides)
    return config_from_dict(data)


def is_frozen(node):
    """A diagonalizer that has frozen (only Idle nodes hold no record)."""
    return node.state.stolen is not None


def faithful(delay=1, label="ident", **kw):
    spec = {"kind": "faithful", "label": label, "delay": delay}
    spec.update(kw)
    return spec
