"""The benchmark's span recorder wraps fpknl functions by name; every site it
names must exist, or a traced run (``perfbench/run.py --trace 1``) breaks."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fpknl import FDConfig, SampledDensity, fd_solve
from fpknl.checks import reference_case

RECORDER = Path(__file__).resolve().parents[1] / "perfbench" / "recorder.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_recorder", RECORDER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SITES = [(span, *site) for span, sites in _recorder().SPANS.items() for site in sites]


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


@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
def test_fd_counter_charges_the_cell_steps_fd_solve_marches(by_keyword):
    # the recorder charges steps * cfg.nx per fd_solve call, reading nx, dt
    # and t_end off the config; fd_solve refuses an input of another node
    # count, so the charge is the work done
    params, packet = reference_case()
    gamma = SampledDensity.from_callable(lambda pts: packet.eval(params, pts),
                                         [-6.0], [6.0], [101])
    cfg = FDConfig(nx=101, dt=1e-3, t_end=0.05, snapshot_times=(0.05,))
    res = fd_solve(params, gamma, cfg)
    counts = Counter()
    args, kwargs = ((params, gamma), {"cfg": cfg}) if by_keyword else ((params, gamma, cfg), {})
    _recorder().COUNTERS["fdsolver.fd_solve"](counts, args, kwargs, res, None)
    assert counts["fdsolver.steps"] == len(res.times) - 1 == 50
    assert counts["fdsolver.cell_steps"] == (len(res.times) - 1) * gamma.values.size
