"""One fresh interpreter running catalog cases through ``identities.verify``.

Usage: python bench/worker.py WORKLOAD SEED ORDER START [TRACE_OUT]

Prints one JSON line after importing akzeta, one per case from index START
of the seed's ORDER-th case order (wall and CPU time, and the calibration
kernel samples taken before it), and a final ``{"end": true}`` with the
last samples.  With TRACE_OUT the layer functions are wrapped after the
import, no calibration runs, and the spans are written there at the end.
"""

import json
import os
import sys
import time

import akzeta
from akzeta import identities

import calib
import workloads


def emit(**rec):
    sys.stdout.write(json.dumps(rec) + "\n")
    sys.stdout.flush()


def main(workload: str, seed: int, order: int, start: int, trace_out: str | None) -> None:
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(akzeta.__file__).startswith(src + os.sep):
        sys.exit(f"akzeta imported from {akzeta.__file__}, not from {src}")
    cases = workloads.catalog_cases(identities, workload, seed, order)
    emit(n=len(cases), families=len({cid for cid, _ in cases}))
    recorder = sampler = None
    if trace_out:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        sampler = calib.Sampler()
    for i in range(start, len(cases)):
        cid, params = cases[i]
        if recorder is not None:
            recorder.op = i
        cal, cal_s = sampler.take() if sampler else ([], 0.0)
        err, passed, bound = None, False, None
        t, c = time.perf_counter(), time.process_time()
        try:
            report = identities.verify(cid, dict(params))
            passed, bound = bool(report.passed), float(report.bound)
        except Exception as exc:  # a failing case is data, the sweep goes on
            err = f"{type(exc).__name__}: {exc}"
        dt, dc = time.perf_counter() - t, time.process_time() - c
        emit(i=i, ok=passed, s=dt, cpu=dc, cal=cal, cal_s=cal_s, bound=bound, err=err,
             case=f"{cid} {', '.join(f'{k}={v}' for k, v in params.items())}")
    if recorder is not None:
        recorder.dump(trace_out)
    cal, cal_s = sampler.take() if sampler else ([], 0.0)
    emit(end=True, cal=cal, cal_s=cal_s)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]),
         sys.argv[5] if len(sys.argv) > 5 else None)
