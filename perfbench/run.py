"""fpknl benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fd_oracle --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

One closed-loop client: one process, the next op starts when the previous
one returns.  Each sample is a fresh ``worker.py`` process built from the
checkout's ``src/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print the same metrics with units, the run environment and the workload's
input properties.  A full record goes to ``perfbench/out/``.

``--trace 0`` (end to end): one process that runs ops for ``--seconds``,
with two set-up-only processes before it and two after.  The op timings
are scaled to the reference host speed by the workload's calibrator
(``calibrate.py``), run between ops about twice a second.  Each of the
five processes is paired with the set-up calibrator launched just before
it, and ``setup_s`` is the median of their set-up times scaled the same
way.  The raw timings go to the record as well.

``--trace 1`` (per layer): two set-up-only processes, then the workload's
fixed op list once untraced and twice traced, each in its own process.
Tracing overhead is traced minus untraced; the two traced runs must give
identical work counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fd_oracle", "quad_forward", "quad_inverse", "closed_form")
# fixed op count of a traced run, sized to a few seconds per process
TRACE_OPS = {"fd_oracle": 90, "quad_forward": 40, "quad_inverse": 20, "closed_form": 480}
SETUP_SAMPLES = 5
# the set-up calibrator: a fresh interpreter that imports fpknl's third-party
# dependencies and no fpknl code, timed from launch to exit.  Set-up times
# are scaled by SETUP_REFERENCE_S over its time, its median on a quiet
# 2-vCPU VM (see calibrate.py for the op calibrators)
SETUP_CALIBRATOR = "import numpy, scipy.linalg, jsonschema"
SETUP_REFERENCE_S = 0.6
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def environment(seed: int, versions: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fpknl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "blas_threads": min(BLAS_THREADS, nproc), **versions,
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def worker_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    # fixed glibc thresholds: every block of 8 MiB or more is mapped on its own
    # and returned when freed, so peak RSS follows live large arrays, not heap
    # reuse order; the heap keeps up to 32 MiB free, so smaller arrays reuse
    # it instead of being faulted in again on every op
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads, MALLOC_MMAP_THRESHOLD_=str(8 << 20),
                MALLOC_TRIM_THRESHOLD_=str(32 << 20))


def time_setup_calibrator() -> float:
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", SETUP_CALIBRATOR], stdin=subprocess.DEVNULL,
                       cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"set-up calibrator failed: {exc}") from exc
    return time.perf_counter() - start


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, ops: int = 0,
               trace: int = 0, spans: str = "") -> dict:
    """Start one worker, time it from launch to READY, and collect its record."""
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--ops", str(ops), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                            cwd=ROOT, env=env)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    record: dict = {}
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                record["setup_s"] = time.perf_counter() - start
                record["ready"] = json.loads(payload)
            elif tag == "RESULT":
                record["result"] = json.loads(payload)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or "ready" not in record or (mode != "setup" and "result" not in record):
        raise BenchError(f"worker {workload}/{mode} exited with code {code}")
    return record


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def e2e(result: dict, scale: float = 1.0) -> dict:
    """End-to-end metrics of one process; op times are multiplied by scale."""
    lat, verdicts = result["lat_s"], result["verdicts"]
    ok = [t for t, v in zip(lat, verdicts) if v == "ok"] or lat
    return {"ops_per_s": len(lat) / sum(lat) / scale,
            "op_p50_ms": 1e3 * statistics.median(ok) * scale,
            "op_p90_ms": 1e3 * p90(ok) * scale, "ok_ratio": verdicts.count("ok") / len(verdicts),
            "peak_rss_mb": result["peak_rss_mb"]}


def tally(records: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every timed op of the given records.
    A wrong value in warm-up or in the known-defect probe also makes the run
    incorrect; probe ops are not counted as attempted."""
    verdicts = [v for r in records for v in r["result"]["verdicts"]]
    other = [v for r in records
             for v in r["ready"]["warmup_verdicts"] + r["result"].get("probe_verdicts", [])]
    correct = "wrong" not in verdicts and "wrong" not in other
    return correct, len(verdicts), sum(v != "ok" for v in verdicts)


def probe(result: dict) -> dict:
    """Outcome of the known-defect probe of one process (empty if it has none)."""
    verdicts = result.get("probe_verdicts", [])
    return {"ops": len(verdicts), "ok": verdicts.count("ok"), "failed": verdicts.count("failed"),
            "wrong": verdicts.count("wrong"), "errors": sorted(set(result.get("probe_errors", [])))}


def setup_parts(records: list[dict]) -> dict:
    return {k: statistics.median(r["ready"][k] for r in records)
            for k in ("import_s", "inputs_s", "warmup_s")}


def calibrated_worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    """A worker with the set-up calibrator timed just before its launch."""
    cal_s = time_setup_calibrator()
    return {**run_worker(workload, seed, mode, seconds=seconds), "setup_cal_s": cal_s}


def bench_time(workload: str, seed: int, seconds: float) -> dict:
    # set-up samples on both sides of the timed run, so a slow spell of a
    # shared machine moves the median less
    before = [calibrated_worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES // 2)]
    main = calibrated_worker(workload, seed, "time", seconds=seconds)
    after = [calibrated_worker(workload, seed, "setup")
             for _ in range(SETUP_SAMPLES - 1 - len(before))]
    samples = before + [main] + after
    # host-speed scale of the op timings: the calibrator's reference time over
    # its mean time in this run (see calibrate.py); each set-up time is scaled
    # by the set-up calibrator's time next to it
    cal = main["result"]["cal_s"]
    scale = main["result"]["cal_reference_s"] / statistics.fmean(cal)
    setup_scaled = [SETUP_REFERENCE_S * r["setup_s"] / r["setup_cal_s"] for r in samples]
    metrics = {"setup_s": statistics.median(setup_scaled), **e2e(main["result"], scale)}
    correct, attempted, failed = tally([main])
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
            "setup_samples_s": [r["setup_s"] for r in samples], "setup_parts": setup_parts(samples),
            "host_speed": {"calibrator_runs": len(cal), "calibrator_mean_s": statistics.fmean(cal),
                           "reference_s": main["result"]["cal_reference_s"], "scale": scale,
                           "setup_calibrator_s": [r["setup_cal_s"] for r in samples],
                           "setup_reference_s": SETUP_REFERENCE_S,
                           "raw": {"setup_s": statistics.median(r["setup_s"] for r in samples),
                                   **e2e(main["result"])}},
            "probe": probe(main["result"]), "versions": main["ready"]["versions"], "properties": main["ready"]["properties"]}


def bench_trace(workload: str, seed: int) -> dict:
    ops = TRACE_OPS[workload]
    probes = [run_worker(workload, seed, "setup") for _ in range(SETUP_SAMPLES - 3)]
    plain = run_worker(workload, seed, "fixed", ops=ops)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    traced = run_worker(workload, seed, "fixed", ops=ops, trace=1, spans=str(spans_path))
    again = run_worker(workload, seed, "fixed", ops=ops, trace=1)
    tr, un = traced["result"], plain["result"]
    counts_repeat = tr["counts"] == again["result"]["counts"]
    m = layer_metrics(tr)
    m.update({f"setup.{k}": v for k, v in setup_parts(probes + [plain, traced, again]).items()})
    wall, base = sum(tr["lat_s"]), sum(un["lat_s"])
    self_total = sum(tr["self_s"].values())
    e_tr, e_un = e2e(tr), e2e(un)
    m.update({
        "trace.ops": ops, "trace.spans": tr["spans"], "trace.op_wall_s": wall,
        "trace.untraced_op_wall_s": base, "trace.overhead_s": wall - base,
        "trace.overhead_ratio": (wall - base) / base,
        "trace.overhead.op_p50_ms": e_tr["op_p50_ms"] - e_un["op_p50_ms"],
        "trace.overhead.op_p90_ms": e_tr["op_p90_ms"] - e_un["op_p90_ms"],
        "trace.overhead.ops_per_s": e_tr["ops_per_s"] - e_un["ops_per_s"],
        "trace.span_cost_s": tr["spans"] * tr["span_cost_s"],
        "trace.self_total_s": self_total, "trace.unattributed_s": wall - self_total,
        "trace.counts_repeat": 1.0 if counts_repeat else 0.0,
    })
    for name in ("fdsolver.fd_solve", "kernels.kernel_matrix", "evolution.inverse_evolve"):
        m[name + ".self_share"] = tr["self_s"][name] / wall
    known = probe(tr)
    m["probe.long_horizon.ops"] = known["ops"]
    m["probe.long_horizon.failed"] = known["failed"]
    correct, attempted, failed = tally([plain, traced, again])
    if not counts_repeat:
        print("trace: work counts differ between two traced runs of one seed", file=sys.stderr)
    return {"correct": correct and counts_repeat, "attempted": attempted, "failed": failed,
            "metrics": m, "probe": known, "versions": plain["ready"]["versions"],
            "properties": plain["ready"]["properties"], "spans_file": str(spans_path)}


def layer_metrics(tr: dict) -> dict:
    c, s = tr["counts"], tr["self_s"]
    m = {}
    for name in recorder.SPANS:
        m[name + ".calls"] = c.get(name + ".calls", 0)
        m[name + ".self_s"] = s[name]
    fd_s, km_s = s["fdsolver.fd_solve"], s["kernels.kernel_matrix"]
    steps, cells = c.get("fdsolver.steps", 0), c.get("fdsolver.cell_steps", 0)
    entries = c.get("kernels.kernel_matrix.entries", 0)
    inv_calls = c.get("evolution.inverse_evolve.calls", 0)
    rejected = c.get("evolution.inverse_evolve.rejected", 0)
    m.update({
        "fdsolver.cell_steps": cells,
        "fdsolver.step_us": 1e6 * fd_s / steps if steps else 0.0,
        "fdsolver.cell_steps_per_s": cells / fd_s if fd_s else 0.0,
        "kernels.kernel_matrix.entries": entries,
        "kernels.kernel_matrix.bytes_computed": c.get("kernels.kernel_matrix.bytes_computed", 0),
        "kernels.kernel_matrix.entries_per_s": entries / km_s if km_s else 0.0,
        "evolution.inverse_evolve.matrix_entries": c.get("evolution.inverse_evolve.matrix_entries", 0),
        "evolution.inverse_evolve.rejected": rejected,
        "evolution.inverse_evolve.useful_ratio": (inv_calls - rejected) / inv_calls if inv_calls else 0.0,
        "packets.eval.points": c.get("packets.eval.points", 0),
    })
    return m


def units(trace: int) -> dict:
    """Metric name -> unit of the metrics a run prints, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fpknl" / "__init__.py").is_file():
        print(f"fpknl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    unit = units(args.trace)
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            rec = bench_trace(name, args.seed) if args.trace else \
                bench_time(name, args.seed, args.seconds)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        rec["environment"] = environment(args.seed, rec.pop("versions"))
        missing = set(unit) - set(rec["metrics"])
        if missing:
            print(f"{name}: metrics missing from the run: {sorted(missing)}", file=sys.stderr)
            return 1
        metrics = {k: {"value": rec["metrics"][k], "unit": unit[k]} for k in unit}
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump({**rec, "metrics": metrics}, fh, indent=1)
        print(f"# {name}  attempted={rec['attempted']} failed={rec['failed']} "
              f"fail_ratio={rec['failed'] / rec['attempted']:.6g} correct={rec['correct']}")
        for k, v in metrics.items():
            print(f"  {name:<13} {k:<44} {v['value']:>16.6g} {v['unit']}")
        if "host_speed" in rec:
            hs = rec["host_speed"]
            raw = ", ".join(f"{k}={hs['raw'][k]:.6g}"
                            for k in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"))
            print(f"  host-speed scale {hs['scale']:.4f} ({hs['calibrator_runs']} calibrator runs); "
                  f"unscaled: {raw}")
        if rec["probe"]["ops"]:
            kp = rec["probe"]
            print(f"  known defect, long-horizon probe (not timed, not in attempted): "
                  f"{kp['failed']} of {kp['ops']} ops failed {kp['errors']}, {kp['wrong']} wrong")
        print(f"  environment {json.dumps(rec['environment'])}")
        print(f"  properties {json.dumps(rec['properties'])}")
        summary["correct"] &= rec["correct"]
        summary["attempted"] += rec["attempted"]
        summary["failed"] += rec["failed"]
        prefix = "" if len(names) == 1 else name + "."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
