"""Fuzzed session configs through the command line.

Each example starts from a bundled config and sets, deletes or adds keys
anywhere in the loader's schema, with values of every JSON type.  Whatever
the input, ``session`` must end with exit 0, 3 or 4 and never raise, and an
exit-0 report must hold only finite numbers.
"""

import contextlib
import io
import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd import cli
from ddiqkd.attacks import STRATEGIES
from ddiqkd.detectors import MODELS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BASES = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]

#: Keys of each config object, as the loader knows them, plus one it does
#: not; the tagged objects list the fields of their current class.
SCHEMA = {
    None: lambda node: [*cli._SESSION_FIELDS, "bogus"],
    "receiver": lambda node: [*cli._RECEIVER_FIELDS, "bogus"],
    "detectors": lambda node: ["model", *_fields(MODELS, node.get("model")), "bogus"],
    "attack": lambda node: ["type", *_fields(STRATEGIES, node.get("type")), "bogus"],
}


def _fields(table: dict, tag) -> list[str]:
    if isinstance(tag, str) and tag in table:
        return list(table[tag].FIELDS)
    return sorted({k for cls in table.values() for k in cls.FIELDS})


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=2**65),
    st.floats(),  # NaN and infinities are written as the non-JSON tokens
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from(
        ["pi/36", "0.5pi", "default", "D1", "D3", "Z", "X", "", "abc",
         *MODELS, *STRATEGIES, "no/such/curves.csv"]
    ),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["Z", "X", "Y", "D1"]), inner, max_size=3),
    ),
    max_leaves=6,
)
#: (section, value): None deletes the key or sets it to null; plain numbers
#: are drawn often enough that some edited configs still run (about 8%)
edits = st.tuples(
    st.sampled_from(list(SCHEMA)),
    st.one_of(st.none(), st.floats(0.0, 1.0), st.integers(0, 10**6), values),
)


def apply_edit(cfg: dict, section, data, value) -> None:
    node = cfg
    if section is not None:
        if not isinstance(cfg.get(section), dict):
            cfg[section] = {}
        node = cfg[section]
    key = data.draw(st.sampled_from(SCHEMA[section](node)))
    if value is None and data.draw(st.booleans()):
        node.pop(key, None)
    else:
        node[key] = value


def finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


@settings(max_examples=250, deadline=None)
@given(
    base=st.sampled_from(BASES),
    changes=st.lists(edits, min_size=1, max_size=2),
    exact=st.booleans(),
    data=st.data(),
)
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, base, changes, exact, data):
    cfg = json.loads(json.dumps(base))
    for section, value in changes:
        apply_edit(cfg, section, data, value)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["session", "--config", str(path)] + (["--exact"] if exact else []))
    assert code in (0, 3, 4), cfg
    report = json.loads(out.getvalue())
    if code == 0:
        assert finite(report), (cfg, report)
    else:
        assert set(report) == {"error"}
