"""One workload process: import fpknl, build inputs, warm up, run the closed loop.

Run by ``run.py``, one fresh process per sample.  It prints ``READY`` with
its set-up parts once it is about to start the first timed op, and
``RESULT`` with every op's latency and verdict when it ends.

    --mode setup   stop after READY (a set-up sample)
    --mode time    run ops back to back until --seconds have passed
    --mode fixed   run exactly --ops ops (traced runs and their untraced twin)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

# fpknl is imported from the checkout this file lives in, never from site-packages
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


CAL_EVERY_S = 0.5


def emit(tag: str, payload: dict) -> None:
    print(tag, json.dumps(payload), flush=True)


def run_op(wl, inp, errors: list | None = None) -> tuple[str, float]:
    """Time one op and judge it; nothing of the op outlives this call.
    The type name of a raised error is appended to ``errors`` if given."""
    out = err = None
    start = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception as exc:
        err = exc
    elapsed = time.perf_counter() - start
    if errors is not None and err is not None:
        errors.append(type(err).__name__)
    try:
        return wl.check(inp, out, err), elapsed
    finally:
        # the traceback pins the failed op's frames and their arrays
        if err is not None:
            err.__traceback__ = None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import numpy
    import scipy
    import fpknl
    import fpknl.checks  # noqa: F401
    import fpknl.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    warm = wl.warmup_inputs()
    inp = wl.make(0)
    t2 = time.perf_counter()
    warm_verdicts = [run_op(wl, w)[0] for w in warm]
    del warm
    t3 = time.perf_counter()
    emit("READY", {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
                   "warmup_verdicts": warm_verdicts,
                   "properties": wl.properties,
                   "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                                "scipy": scipy.__version__, "fpknl": fpknl.__version__}})
    if args.mode == "setup":
        return 0

    rec = None
    if args.trace:
        import recorder
        rec = recorder.Recorder(extra_modules=[workloads])
        rec.install()
    # the host-speed calibrator runs about every CAL_EVERY_S, between ops
    calibrator = wl.calibrator() if args.mode == "time" else None
    if calibrator is not None:
        calibrator.run()
    lat, verdicts, cal = [], [], []
    start = next_cal = time.perf_counter()
    i = 0
    try:
        while True:
            if rec is not None:
                rec.op = i
            verdict, dt = run_op(wl, inp)
            lat.append(dt)
            verdicts.append(verdict)
            i += 1
            inp = None
            if calibrator is not None and time.perf_counter() >= next_cal:
                cal.append(calibrator.timed())
                next_cal = time.perf_counter() + CAL_EVERY_S
            if args.mode == "time" and time.perf_counter() - start >= args.seconds:
                break
            if args.mode == "fixed" and i >= args.ops:
                break
            inp = wl.make(i)
    finally:
        if rec is not None:
            rec.uninstall()
    result = {"lat_s": lat, "verdicts": verdicts, "cal_s": cal,
              "cal_reference_s": wl.calibrator.reference_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if hasattr(wl, "probe_inputs"):
        # after peak RSS is read and outside the trace: the probe moves no metric
        errors: list = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result["probe_verdicts"] = [run_op(wl, p, errors)[0] for p in wl.probe_inputs()]
        result["probe_errors"] = errors
    if rec is not None:
        result["self_s"] = rec.self_times()
        result["counts"] = dict(rec.counts)
        result["spans"] = len(rec.spans)
        result["span_cost_s"] = rec.call_cost()
        if args.spans:
            rec.write(args.spans)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
