"""The benchmark's span recorder wraps fpknl functions by name; every site it
names must exist, or a traced run (``perfbench/run.py --trace 1``) breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parents[1] / "perfbench" / "recorder.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


SITES = [(span, *site) for span, sites in _spans().items() for site in sites]


@pytest.mark.parametrize("span, module, cls_name, attr", SITES,
                         ids=[f"{s[0]}:{s[3]}" for s in SITES])
def test_span_site_resolves(span, module, cls_name, attr):
    owner = importlib.import_module(module)
    if cls_name is None:
        assert callable(getattr(owner, attr, None)), f"{span}: {module}.{attr} missing"
    else:
        # the recorder reads the class __dict__, so an inherited method does not count
        cls = getattr(owner, cls_name)
        assert attr in cls.__dict__, f"{span}: {cls_name}.{attr} not defined in its class body"
