"""Configuration-driven command line: evolve, invert, symmetry, verify.

Configs are JSON, checked against ``SCHEMA`` with unknown keys rejected.
``SCHEMA`` is the one statement of the config format, and
``_schema_errors`` walks it without a schema library.  It reads the JSON
Schema keywords that SCHEMA uses, with their JSON Schema meanings: type
(object, array, number, integer, string, boolean), enum, const, oneOf,
required, properties, additionalProperties false, items, minItems,
minimum and exclusiveMinimum.  It checks no other keyword, and
tests/test_config_schema.py fails on a schema that uses one.

Artifacts are deterministic: identical configs produce byte-identical CSV
and report JSON (floats are written in shortest round-trip form; wall
time and versions go to a separate meta file).  The exception is the
verify report's reduction-runtime check, which is a measured wall time.

Each decision is made once.  ``_pathway`` reads the initial data's kind
and returns the record that evolve and inverse both follow: the evolve
function (closed form for a gaussian mixture, quadrature for samples), its
per-run tolerance, the CSV axis, a sampler of a field on that axis (None
for an n-D mixture, so evolve refuses it and inverse writes no CSV), and
the roundtrip check's name, tolerance and error.  Tasks return their CSV
as (t, axis, values) blocks, which write_snapshots_csv formats.  The
symmetry task compares the three routes of ``symmetry_routes`` at
time.end, whose conjugation route is also that time's snapshot; every
other snapshot builds the conjugation route alone (plan_for,
evolve_analytic, symmetry_apply_evolution: the calls symmetry_routes makes
for it, on the same inputs).  verify hands check_fd_reduction
only the settings the config gives; the check holds the defaults.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 config error,
3 numerical-domain error (focal point, ill-posed inverse, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from collections import namedtuple
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, checks
from .errors import ConfigurationError, FpknlError, InputError
from .evolution import (evolve_analytic, evolve_quadrature, inverse_evolve,
                        plan_for)
from .model import ModelParams, SampledDensity, _vector, require_finite
from .packets import GaussianMixture, GaussianPacket
from .symmetry import (InitialOperator, linsym_operator, symmetry_apply_evolution,
                       symmetry_routes)
from .variations import matriciant

ENV_OUTDIR = "FPKNL_OUTDIR"

_matrix_schema = {"type": "array", "minItems": 1,
                  "items": {"type": "array", "minItems": 1,
                            "items": {"type": "number"}}}
_vector_schema = {"type": "array", "minItems": 1, "items": {"type": "number"}}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "task"],
    "properties": {
        "task": {"enum": ["evolve", "inverse", "symmetry", "verify"]},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dimension", "drift", "coupling_state",
                         "coupling_mean", "diffusion"],
            "properties": {
                "dimension": {"type": "integer", "minimum": 1},
                "drift": _matrix_schema,
                "coupling_state": _matrix_schema,
                "coupling_mean": _matrix_schema,
                "diffusion": {"type": "number", "exclusiveMinimum": 0},
                "coupling": {"type": "number"},
            },
        },
        "initial": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["gaussian", "sampled"]},
                "components": {
                    "type": "array", "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["mean", "num", "den"],
                        "properties": {
                            "weight": {"type": "number"},
                            "mean": _vector_schema,
                            "num": _matrix_schema,
                            "den": _matrix_schema,
                        },
                    },
                },
                "path": {"type": "string"},
            },
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "end"],
            "properties": {
                "start": {"type": "number"},
                "end": {"type": "number"},
                "snapshots": {"type": "array", "minItems": 1, "items": {"type": "number"}},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x_min": {"type": "number"},
                "x_max": {"type": "number"},
                "nodes": {"type": "integer", "minimum": 8},
            },
        },
        "symmetry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "operator": {
                    "oneOf": [
                        {"const": "linsym"},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["const", "lin", "grad"],
                            "properties": {
                                "const": {"type": "number"},
                                "lin": _vector_schema,
                                "grad": _vector_schema,
                            },
                        },
                    ]
                },
                "image_moment": _vector_schema,
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "checks": {"type": "array", "minItems": 1,
                           "items": {"enum": sorted(checks.ALL_CHECKS)}},
                "fd": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "dt": {"type": "number", "exclusiveMinimum": 0},
                        "refine": {"type": "boolean"},
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "prefix": {"type": "string"},
            },
        },
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float), "integer": (int, float)}


def _is_type(value, kind: str) -> bool:
    """JSON Schema's types: a bool is a boolean alone, not a number, and a
    float with no fractional part is an integer (NaN and inf are numbers)."""
    return (isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "boolean")
            and (kind != "integer" or isinstance(value, int) or value.is_integer()))


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Yield (path, message) for each way value breaks schema, path being
    the keys and indices that lead to the offending value.  The keywords
    are those the module docstring lists; as in JSON Schema, one that
    constrains objects, arrays or numbers passes a value of another type.
    "$schema" names the dialect and is not a constraint."""
    if "type" in schema and not _is_type(value, schema["type"]):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']}"
    if "const" in schema and value != schema["const"]:
        yield path, f"{value!r} is not {schema['const']!r}"
    if "oneOf" in schema and sum(not any(_schema_errors(value, branch))
                                 for branch in schema["oneOf"]) != 1:
        yield path, f"{value!r} is not valid under exactly one of the oneOf schemas"
    if isinstance(value, dict):
        yield from ((path, f"{key!r} is a required property")
                    for key in schema.get("required", ()) if key not in value)
        for key, item in value.items():
            if key in schema.get("properties", ()):
                yield from _schema_errors(item, schema["properties"][key], path + (key,))
            elif schema.get("additionalProperties") is False:
                yield path, f"additional property {key!r} is not allowed"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} has fewer than {schema['minItems']} items"
        for i, item in enumerate(value if "items" in schema else ()):
            yield from _schema_errors(item, schema["items"], path + (i,))
    if _is_type(value, "number"):  # NaN passes both bounds, as in JSON Schema
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"{value!r} is less than the minimum {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, f"{value!r} is not above {schema['exclusiveMinimum']!r}"


def fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    errors = sorted(_schema_errors(cfg, SCHEMA), key=lambda e: e[0])
    if errors:
        lines = [f"  at {'/'.join(map(str, where)) or '<root>'}: {message}"
                 for where, message in errors]
        raise ConfigurationError("config does not match schema:\n" + "\n".join(lines))
    return cfg


def build_params(cfg: dict) -> ModelParams:
    mc = cfg["model"]
    params = ModelParams(drift=mc["drift"], coupling_state=mc["coupling_state"],
                         coupling_mean=mc["coupling_mean"],
                         diffusion=mc["diffusion"],
                         coupling=mc.get("coupling", 0.0))
    if params.dim != mc["dimension"]:
        raise ConfigurationError(
            f"dimension {mc['dimension']} does not match matrix shape {params.dim}"
        )
    return params


def build_initial(cfg: dict, params: ModelParams):
    ic = cfg.get("initial")
    if ic is None:
        raise ConfigurationError("this task needs an initial block")
    if ic["kind"] == "gaussian":
        comps = [GaussianPacket(mean=c["mean"], num=c["num"], den=c["den"],
                                weight=c.get("weight", 1.0))
                 for c in ic.get("components", [])]
        if not comps:
            raise ConfigurationError("gaussian initial needs components")
        initial = GaussianMixture(comps)
    else:
        path = ic.get("path")
        if not path:
            raise ConfigurationError("sampled initial needs a path")
        try:
            with warnings.catch_warnings():  # an empty file is counted below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:  # ValueError: a header or a non-number
            raise ConfigurationError(f"cannot read samples {path}: {exc}") from exc
        if len(data) < 2:
            raise ConfigurationError(
                f"sampled initial needs at least two grid nodes, got {len(data)}")
        if data.shape[1] != 2:
            raise ConfigurationError("sampled initial must be two CSV columns: x,u")
        x, u = data[:, 0], data[:, 1]
        dx = np.diff(x)
        if np.max(np.abs(dx - dx[0])) > 1e-9 * abs(dx[0]):
            raise ConfigurationError("sampled initial grid must be uniform")
        initial = SampledDensity([x[0]], [dx[0]], u)
    if initial.dim != params.dim:
        raise ConfigurationError(f"the initial block has dimension {initial.dim}, "
                                 f"but model.dimension is {params.dim}")
    return initial


def _times(cfg: dict) -> tuple[float, float, list[float]]:
    tc = cfg.get("time")
    if tc is None:
        raise ConfigurationError("this task needs a time block")
    start, end = float(tc["start"]), float(tc["end"])
    snaps = list(tc.get("snapshots", [tc["end"]]))
    require_finite(ConfigurationError, "time start, end and snapshots", start, end, snaps)
    if end < start or not all(start <= t <= end for t in snaps):
        raise ConfigurationError(f"time needs start <= snapshots <= end, got start "
                                 f"{start:g}, end {end:g}, snapshots {snaps}")
    return start, end, snaps


def _grid_axis(cfg: dict) -> np.ndarray:
    gc = cfg.get("grid")
    if gc is None or not {"x_min", "x_max", "nodes"} <= set(gc):
        raise ConfigurationError("this task needs a grid block with x_min, x_max, nodes")
    return SampledDensity.on_grid(gc["x_min"], gc["x_max"], gc["nodes"]).coordinate(0)


def write_snapshots_csv(path: Path, blocks: list[tuple]) -> None:
    """Write (t, axis, values) blocks as t,x,u rows, one per axis node."""
    with open(path, "w") as fh:
        fh.write("t,x,u\n")
        for t, xs, values in blocks:
            for x, v in zip(xs, values):
                fh.write(f"{fmt(t)},{fmt(x)},{fmt(v)}\n")


_Pathway = namedtuple("_Pathway", "evolve tol axis sample roundtrip roundtrip_tol error")


def _pathway(cfg: dict, params: ModelParams, initial) -> _Pathway:
    """How the initial data moves and is written, decided once for its kind:
    the evolve function and its per-run tolerance, the CSV axis and a
    sampler of a field on it (None for an n-D mixture, which has no CSV),
    and the roundtrip check's name, tolerance and error against the
    initial data."""
    if isinstance(initial, SampledDensity):
        return _Pathway(evolve_quadrature, checks.QUADRATURE_TOL, initial.coordinate(0),
                        lambda out: out.values, "roundtrip-quadrature",
                        checks.ROUNDTRIP_QUADRATURE_TOL,
                        lambda back: float(np.max(np.abs(back.values - initial.values))))
    xs = _grid_axis(cfg) if params.dim == 1 else None
    return _Pathway(evolve_analytic, checks.ANALYTIC_EVOLVE_TOL, xs,
                    None if xs is None else lambda out: out.eval(params, xs.reshape(-1, 1)),
                    "roundtrip-analytic", checks.ROUNDTRIP_PARAMETER_TOL,
                    lambda back: checks.parameter_error(initial, back))


def task_evolve(cfg: dict, params: ModelParams):
    s, _, snaps = _times(cfg)
    initial = build_initial(cfg, params)
    way = _pathway(cfg, params, initial)
    if way.sample is None:
        raise ConfigurationError("analytic CSV output is one-dimensional")
    results, blocks, snap_info = [], [], []
    for t in snaps:
        plan = plan_for(params, s, t, initial)
        out = way.evolve(initial, plan)
        blocks.append((t, way.axis, way.sample(out)))
        mass = out.total_mass()
        mom = out.first_moment()
        dev = float(np.max(np.abs(mom - plan.x_end)))
        results += [checks.result(f"mass@t={t:g}", abs(mass - 1), way.tol),
                    checks.result(f"moment@t={t:g}", dev, way.tol)]
        snap_info.append({"t": t, "mass": mass, "moment": mom.tolist()})
    return results, blocks, {"snapshots": snap_info}


def task_inverse(cfg: dict, params: ModelParams):
    s, t_end, _ = _times(cfg)
    initial = build_initial(cfg, params)
    way = _pathway(cfg, params, initial)
    plan = plan_for(params, s, t_end, initial)
    back = inverse_evolve(way.evolve(initial, plan), plan)
    err = way.error(back)
    blocks = [] if way.sample is None else [(s, way.axis, way.sample(back))]
    return [checks.result(way.roundtrip, err, way.roundtrip_tol)], blocks, {"roundtrip_error": err}


def task_symmetry(cfg: dict, params: ModelParams):
    if params.dim != 1:
        raise ConfigurationError("the symmetry task is one-dimensional")
    s, t_end, snaps = _times(cfg)
    initial = build_initial(cfg, params)
    if isinstance(initial, SampledDensity):
        raise ConfigurationError("the symmetry task needs a gaussian initial block")
    sc = cfg.get("symmetry", {})
    op_cfg = sc.get("operator", "linsym")
    x_gamma = initial.first_moment(normalized=True)
    if op_cfg == "linsym":
        op = linsym_operator(params, matriciant(params, s, s), x_gamma)
    else:
        op = InitialOperator(const=op_cfg["const"], lin=op_cfg["lin"],
                             grad=op_cfg["grad"])
    override = sc.get("image_moment")
    if override is not None:
        override = _vector(override, params.dim, "symmetry.image_moment")

    def conjugation_at(t):
        plan = plan_for(params, s, t, initial)
        return symmetry_apply_evolution(op, evolve_analytic(initial, plan), plan, override)

    routes, shifts = symmetry_routes(op, initial, params, s, t_end, moment_override=override)
    xs = _grid_axis(cfg)
    pts = xs.reshape(-1, 1)
    worst = checks.route_spread([route.eval(params, pts) for route in routes])
    results = [checks.result("symmetry-routes", worst, checks.ROUTE_TOL,
                             "pairwise over 3 routes")]
    # each snapshot is the conjugation route's image at its time, that of
    # time.end the one built above
    blocks = [(t, xs, (routes[2] if t == t_end else conjugation_at(t)).eval(params, pts))
              for t in snaps]
    return results, blocks, {"alpha": shifts.alpha, "normalized": shifts.normalized}


def task_verify(cfg: dict, params: ModelParams):
    vc = cfg.get("verify", {})
    names = vc.get("checks", [n for n in sorted(checks.ALL_CHECKS)
                              if n != "fd-reduction"])
    packet = None
    if cfg.get("initial", {}).get("kind") == "gaussian":
        # the checks need a unit-mass density, whatever the component's share
        packet = replace(build_initial(cfg, params).components[0], weight=1.0)
    # the fd-reduction settings the config gives; the check holds the rest
    settings = {**vc.get("fd", {}), **{"nx" if key == "nodes" else key: value
                                        for key, value in cfg.get("grid", {}).items()}}
    start = 0.0
    if "time" in cfg:
        start, settings["t_end"] = _times(cfg)[:2]
    results = []
    for name in names:
        if name == "fd-reduction":
            if start != 0.0:
                raise ConfigurationError("the fd-reduction check runs the FD oracle from "
                                         "the initial packet at t = 0; time.start must be 0")
            results += checks.check_fd_reduction(params=params, packet=packet, **settings)
        elif name in checks.MODEL_CHECKS:
            results += checks.ALL_CHECKS[name](params, packet)
        else:
            results += checks.ALL_CHECKS[name]()
    return results, [], {}


TASKS = {"evolve": task_evolve, "inverse": task_inverse,
         "symmetry": task_symmetry, "verify": task_verify}


def run_config(cfg: dict, outdir: Path) -> int:
    params = build_params(cfg)
    start = time.perf_counter()
    results, blocks, extra = TASKS[cfg["task"]](cfg, params)
    wall = time.perf_counter() - start
    outdir.mkdir(parents=True, exist_ok=True)
    prefix = cfg.get("output", {}).get("prefix", "run")
    if blocks:
        write_snapshots_csv(outdir / f"{prefix}_snapshots.csv", blocks)
    all_passed = all(r.passed for r in results)
    report = {"task": cfg["task"], "all_passed": all_passed,
              "checks": [asdict(r) for r in results], **extra}
    (outdir / f"{prefix}_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    meta = {"config": cfg, "version": __version__,
            "numpy": np.__version__, "wall_time_s": wall}
    (outdir / f"{prefix}_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n")
    for r in results:
        print(r.line())
    print(f"report: {outdir / (prefix + '_report.json')}")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fpknl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the task named in the config")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="run the config with task forced to verify")
    p_ver.add_argument("config")
    sub.add_parser("print-schema", help="print the config JSON schema")
    args = parser.parse_args(argv)

    if args.command == "print-schema":
        print(json.dumps(SCHEMA, sort_keys=True, indent=2))
        return 0
    try:
        cfg = load_config(args.config)
        if args.command == "verify":
            cfg["task"] = "verify"
        outdir = Path(os.environ.get(ENV_OUTDIR)
                      or cfg.get("output", {}).get("dir", "out"))
        return run_config(cfg, outdir)
    except (ConfigurationError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FpknlError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
