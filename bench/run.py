"""akzeta benchmark: one workload, one seed, checked outputs, named metrics.

Usage (from the repository root):

    python3 bench/run.py --workload catalog-core --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, one process at a time):

    catalog-core  every catalog case but PROP2 through identities.verify
    bell-series   the PROP2 cases (Bell-weighted p = 1 sums, m = 0..11)
    cli-cold      a stream of ``python -m akzeta.cli --json ...`` calls

Each pass runs in a fresh interpreter, so every cache starts empty, and goes
through its own seed-drawn order of the inputs.  Passes repeat while the
next one is projected to end within ``--seconds`` (the first always runs).
Every operation has a timeout; one that exceeds it is killed and counted as
failed, and the pass goes on.  Between operations a reference computation
of ``calib.py`` is timed, and the gated times are CPU times scaled by it to
the reference host speed (see ``end_to_end``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics with the tracing
overhead and the accounting gap.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with the
platform, every operation and every failure, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import cli_cases  # noqa: E402
import platform_info  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catalog-core", "bell-series", "cli-cold")
OP_TIMEOUT_S = {"catalog-core": 60.0, "bell-series": 90.0, "cli-cold": 30.0}
HARD_LIMIT_S = 160.0          # stop starting operations past this point
SETUP_PROBES = 7


class Run:
    """State of one benchmark run: where it is, its clock and its records."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.t0 = time.monotonic()
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # akzeta makes no BLAS calls, but importing numpy starts a BLAS
        # thread pool whose start-up spin counts as CPU time, more or less
        # of it depending on what else runs on the other core.
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def op_timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S[self.workload], HARD_LIMIT_S + 10 - self.elapsed()))

    def python(self, *args: str, **kw) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, **kw)


# ------------------------------------------------------------------ setup

class SetupError(RuntimeError):
    pass


def setup_times(run: Run, module: str) -> list[float]:
    """Import time of ``module`` in fresh interpreters; one warm-up first,
    so a bytecode cache written by the first import is not timed."""
    code = ("import time; t = time.perf_counter(); import {m}; "
            "dt = time.perf_counter() - t; import akzeta; print(dt, akzeta.__file__)"
            ).format(m=module)
    src = os.path.realpath(os.path.join(run.root, "src"))
    out = []
    for k in range(SETUP_PROBES + 1):
        proc = run.python("-c", code, timeout=60)
        if proc.returncode != 0:
            raise SetupError(f"import {module} failed:\n{proc.stderr}")
        dt, path = proc.stdout.strip().split(" ", 1)
        if not os.path.realpath(path).startswith(src + os.sep):
            raise SetupError(f"akzeta imported from {path}, not from {src}")
        if k:
            out.append(float(dt))
    return out


# ------------------------------------------------------- catalog workers

class LineReader:
    """Line reads from a pipe with a deadline (select + os.read)."""

    def __init__(self, stream):
        self.fd, self.buf = stream.fileno(), b""

    def readline(self, timeout: float) -> str | None:
        """A line; "" at end of stream; None when the timeout expires first."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return ""
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def catalog_pass(run: Run, order: int, trace_out: str | None) -> dict:
    """One pass over case list ``order`` of the seed, in fresh worker
    interpreters.

    A case that times out or kills its worker is recorded as failed and the
    pass resumes in a new worker at the next case."""
    ops: list[dict] = []
    cal: list[float] = []
    wall, start, n, families = 0.0, 0, None, None
    errlog = open(os.path.join(run.out_dir, "worker.stderr"), "a")
    try:
        while n is None or start < n:
            if run.elapsed() > HARD_LIMIT_S:
                ops += [dict(i=i, ok=False, s=0.0, cpu=0.0, bound=None,
                             err="not run: run time limit",
                             case="?") for i in range(start, n or 0)]
                break
            part = trace_out and f"{trace_out}.{start}"
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), run.workload,
                   str(run.seed), str(order), str(start)] + ([part] if part else [])
            proc = subprocess.Popen(cmd, cwd=run.root, env=run.env,
                                    stdout=subprocess.PIPE, stderr=errlog)
            reader = LineReader(proc.stdout)
            try:
                head = reader.readline(60.0)
                if not head:
                    raise SetupError(f"worker did not start (see {errlog.name})")
                head = json.loads(head)
                n, families = head["n"], head["families"]
                t = time.perf_counter()
                while start < n:
                    t_op = time.perf_counter()
                    line = reader.readline(run.op_timeout())
                    if not line:
                        why = "timeout" if line is None else "worker exited"
                        dt = time.perf_counter() - t_op
                        ops.append(dict(i=start, ok=False, s=dt, cpu=dt,
                                        bound=None, err=why, case=f"case #{start}"))
                        start += 1
                        break
                    rec = json.loads(line)
                    ops.append(rec)
                    cal += rec["cal"]
                    wall -= rec["cal_s"]
                    start = rec["i"] + 1
                else:
                    end = reader.readline(60.0)
                    if part and not end:
                        raise SetupError("traced worker did not finish")
                    if end:
                        end = json.loads(end)
                        cal += end["cal"]
                        wall -= end["cal_s"]
                wall += time.perf_counter() - t
            finally:
                _stop(proc)
    finally:
        errlog.close()
    return dict(wall=wall, cpu=sum(op["cpu"] for op in ops), ops=ops, n=n,
                families=families, cal=cal, cal_ref=calib.REFERENCE_S)


# --------------------------------------------------------------- cli-cold

def cli_pass(run: Run, order: int, trace_out: str | None) -> dict:
    ops, cal, wall = [], [], 0.0
    sampler = None if trace_out else calib.Sampler(
        functools.partial(calib.process_sample, run.env), every_s=1.5)
    for k, req in enumerate(cli_cases.requests(run.seed, order)):
        if sampler:
            cal += sampler.take()[0]
        if run.elapsed() > HARD_LIMIT_S:
            ops.append(dict(i=k, ok=False, s=0.0, cpu=0.0, bound=None,
                            err="not run: run time limit",
                            case=req.template))
            continue
        part = trace_out and f"{trace_out}.{k}"
        args = ([os.path.join(HERE, "cli_shim.py"), part] if part
                else ["-m", "akzeta.cli"]) + req.argv()
        t, c = time.perf_counter(), calib.children_cpu()
        try:
            proc = run.python(*args, timeout=run.op_timeout())
            dt = time.perf_counter() - t
            if proc.returncode != 0:
                ok, bound, msg = False, None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            else:
                ok, bound, msg = req.check(proc.stdout)
        except subprocess.TimeoutExpired:
            dt = time.perf_counter() - t
            ok, bound, msg = False, None, "timeout"
        except (ValueError, KeyError, IndexError) as exc:  # unparsable output
            ok, bound, msg = False, None, f"bad output: {exc}"
        wall += dt
        ops.append(dict(i=k, ok=ok, s=dt, cpu=calib.children_cpu() - c, bound=bound,
                        err=None if ok else msg,
                        case=f"{req.template} @{req.precision}: {' '.join(req.args)}",
                        template=req.template))
    if sampler:
        cal += sampler.take()[0]
    return dict(wall=wall, cpu=sum(op["cpu"] for op in ops), ops=ops, n=len(ops),
                families=None, cal=cal, cal_ref=calib.PROCESS_REFERENCE_S)


def one_pass(run: Run, order: int, trace_out: str | None = None) -> dict:
    """Pass ``order`` of the run goes through the seed's ``order``-th
    shuffle of the inputs."""
    return (cli_pass if run.workload == "cli-cold" else catalog_pass)(run, order, trace_out)


def read_traces(trace_out: str) -> tuple[list, list[float]]:
    """Span lists (and CLI import times) of every process of a traced pass."""
    d, base = os.path.split(trace_out)
    traces, imports = [], []
    for name in sorted(os.listdir(d)):
        if name.startswith(base + "."):
            path = os.path.join(d, name)
            with open(path) as fh:
                rec = json.load(fh)
            os.remove(path)
            traces.append(rec["spans"])
            if "import_s" in rec:
                imports.append(rec["import_s"])
    return traces, imports


# ---------------------------------------------------------------- metrics

def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_pass(run: Run, p: dict) -> list[str]:
    """Problems that make the run incorrect (failures are counted apart)."""
    problems = []
    if run.workload != "cli-cold":
        want = workloads.expected_shape(run.workload)
        if (p["n"], p["families"]) != want:
            problems.append(f"pass holds {p['n']} cases in {p['families']} families, "
                            f"expected {want[0]} in {want[1]}")
    for op in p["ops"]:
        if not op["ok"] and op.get("template") not in cli_cases.KNOWN_SEED_FAILURES:
            problems.append(f"FAILED {op['case']}: {op['err'] or 'identity not verified'}")
    return problems


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The gated metrics.

    Pass and operation times are CPU times (user + system, every thread)
    at the reference host speed: multiplied by the reference time of the
    pass's calibration (``calib``) over its median sample time in the pass.
    The host is shared and its speed drifts by up to 1.5x within minutes;
    the calibration, timed between the operations, drifts with it."""
    ops = [op for p in passes for op in p["ops"]]
    speed = [p["cal_ref"] / statistics.median(p["cal"]) for p in passes]
    cpu = [op["cpu"] * f for p, f in zip(passes, speed) for op in p["ops"]]
    digits = [-math.log10(op["bound"]) for op in ops
              if op["bound"] is not None and 0 < op["bound"] < math.inf]
    ok = sum(op["ok"] for op in ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cpu_ref_s": (statistics.median(p["cpu"] * f for p, f in zip(passes, speed)), "s"),
        "op_cpu_ref_p50_s": (quantile(cpu, 0.5), "s"),
        "op_cpu_ref_p90_s": (quantile(cpu, 0.9), "s"),
        "ok_frac": (ok / len(ops), "ratio"),
        "bound_digits_med": (statistics.median(digits), "digits"),
        "bound_digits_min": (min(digits), "digits"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }


def as_measured(passes: list[dict]) -> dict[str, float]:
    """Pass and operation times as measured, in wall time (what a user
    waits for) and in CPU time, with the median calibration sample.
    Printed and recorded, not gated: they move with the host's speed."""
    ops = [op for p in passes for op in p["ops"]]
    wall, cpu = [op["s"] for op in ops], [op["cpu"] for op in ops]
    cal = [c for p in passes for c in p["cal"]]
    return {"wall_s": statistics.median(p["wall"] for p in passes),
            "op_p50_s": quantile(wall, 0.5), "op_p90_s": quantile(wall, 0.9),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "op_cpu_p50_s": quantile(cpu, 0.5), "op_cpu_p90_s": quantile(cpu, 0.9),
            "calib_s": statistics.median(cal) if cal else math.nan}


def process_cost(run: Run, import_s: float) -> float:
    """Interpreter start and exit around a CLI call: the median wall time of
    ``python -c "import akzeta.cli"`` less the import itself."""
    ts = []
    for _ in range(5):
        t = time.perf_counter()
        run.python("-c", "import akzeta.cli", timeout=60)
        ts.append(time.perf_counter() - t)
    return statistics.median(ts) - import_s


def traced(run: Run, untraced_pass: dict, setup: list[float]) -> tuple[dict, dict[str, float]]:
    """One traced pass and its per-layer metrics, with the trace accounting."""
    trace_out = os.path.join(run.out_dir, f"spans-{run.workload}-{run.seed}-{os.getpid()}")
    p = one_pass(run, 0, trace_out)     # the order of the untraced pass
    traces, cli_imports = read_traces(trace_out)
    m = spans.layer_metrics(traces)
    op_sum = sum(op["s"] for op in p["ops"])
    if run.workload == "cli-cold":
        calls = len(p["ops"])
        m["cli.import_s"] = statistics.mean(cli_imports) if cli_imports else 0.0
        m["cli.main_s"] = m["trace.self_sum_s"] / calls   # cli.main is each root span
        # per call: process start and exit, the import and cli.main
        bench_overhead = calls * process_cost(run, statistics.median(setup))
        accounted = m["trace.self_sum_s"] + sum(cli_imports) + bench_overhead
    else:
        m["cli.import_s"] = m["cli.main_s"] = 0.0
        bench_overhead = p["wall"] - op_sum      # harness time between cases
        accounted = m["trace.self_sum_s"] + bench_overhead
    m["trace.wall_s"] = p["wall"]
    m["trace.untraced_wall_s"] = untraced_pass["wall"]
    m["trace.overhead_s"] = p["wall"] - untraced_pass["wall"]
    m["trace.bench_overhead_s"] = bench_overhead
    m["trace.gap_s"] = p["wall"] - accounted
    m["trace.gap_frac"] = m["trace.gap_s"] / p["wall"]
    return p, m


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "akzeta", "__init__.py")):
        print(f"error: no akzeta sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        setup = setup_times(run, "akzeta.cli" if run.workload == "cli-cold" else "akzeta")
        t_measure = time.monotonic()
        passes = [one_pass(run, 0)]
        if args.trace:
            tpass, metrics = traced(run, passes[0], setup)
            passes.append(tpass)
            units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
            units.update({"evaluator.mzv_cache.hit_ratio": "ratio",
                          "trace.gap_frac": "ratio"})
            shown = {k: (v, units[k]) for k, v in metrics.items()}
        else:
            while True:
                spent = time.monotonic() - t_measure
                if spent + spent / len(passes) > args.seconds or run.elapsed() > HARD_LIMIT_S:
                    break
                passes.append(one_pass(run, len(passes)))
            shown = end_to_end(setup, passes)
        measured = as_measured(passes[:1] if args.trace else passes)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = [msg for p in passes for msg in check_pass(run, p)]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    plat = platform_info.collect(root)
    record = dict(workload=run.workload, seed=run.seed, seconds=run.seconds,
                  trace=args.trace, platform=plat, correct=not problems,
                  problems=problems, passes=len(passes), setup_samples=setup,
                  pass_walls=[p["wall"] for p in passes],
                  pass_cpus=[p["cpu"] for p in passes], as_measured=measured,
                  pass_cal=[p["cal"] for p in passes],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                  failures=[f"{op['case']}: {op['err']}" for op in failed], ops=ops)
    out_path = os.path.join(run.out_dir,
                            f"{run.workload}-seed{run.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# akzeta benchmark  workload={run.workload} seed={run.seed} "
          f"passes={len(passes)} ops={len(ops)} run={run.elapsed():.1f}s")
    print(f"# platform {platform_info.summary(plat)}")
    for k, (v, u) in shown.items():
        print(f"{k:45s} {v:14.6g} {u}")
    if not args.trace:
        print(f"{'fail_frac':45s} {len(failed) / len(ops):14.6g} ratio"
              f"  (op samples: {len(ops)})")
        for k, d in (("bound_log10_med", "bound_digits_med"),
                     ("bound_log10_max", "bound_digits_min")):
            print(f"{k:45s} {-shown[d][0]:14.6g} log10  (= -{d})")
        for k, v in measured.items():
            print(f"{k:45s} {v:14.6g} s  (as measured, not gated)")
    for op in failed:
        known = op.get("template") in cli_cases.KNOWN_SEED_FAILURES
        known = "known seed failure: " if known else ""
        print(f"# {known}{op['case']}: {op['err']}")
    for msg in problems:
        print(f"# PROBLEM {msg}")
    print(f"# record: {os.path.relpath(out_path, root)}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
