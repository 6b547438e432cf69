"""sassc benchmark: time to a certified answer, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload default-pipeline --seed 7 --seconds 30 --trace 0

Workloads (see workloads.py): ``default-pipeline``, ``ph-consensus``,
``homotopy`` and ``fine-mesh``; the last is left out of BENCHMARK.json
because one unit takes 30-40 s, and is run by hand to reproduce the n1d 32
baseline. The default seed 7 reproduces the baseline iteration counts
(26 400; 137 450; 39 900 + 149 850; 117 200).
``--smoke`` runs the same workloads at the ``tiny`` preset's size in seconds.

With ``--trace 0`` the run sets up, then makes units until ``--seconds``
have passed (at least one pass over the workload's panel of inputs), and
reports the end-to-end metrics. With ``--trace 1`` it runs each input of
the panel once untraced and once with spans around every layer call site,
and reports the per-layer metrics; the spans go to ``.bench_out/``. Every answer is
checked; the last line of standard output is the JSON result.
"""

import os
import time

T0 = time.perf_counter()

# pin the BLAS and OpenMP pools before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8      # set-ups in fresh interpreters, besides the run's own


@dataclass
class Record:
    """One unit: which input, how long the timed call took, what the checks found."""

    unit: int
    index: int
    seconds: float
    outcome: object


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the instances to the tiny preset's size")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the seconds it took, and exit")
    return p.parse_args(argv)


def run_unit(wl, unit: int, index: int, tracer=None) -> Record:
    """Prepare input ``index``, time the unit's call, then check the answer.

    Any exception ends the unit as a failure; it never escapes.
    """
    from workloads import Outcome

    seconds = 0.0
    t0 = None
    if tracer is not None:
        tracer.unit, tracer.active = unit, True
    try:
        try:
            inp = wl.prepare(index)
            t0 = time.perf_counter()
            out = wl.run(inp)
        finally:
            if t0 is not None:
                seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
        outcome = wl.check(inp, out)
    except Exception as exc:  # a failed unit is counted, not raised
        outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
    if outcome.error is not None:
        print(f"unit {unit} failed: {outcome.error}", file=sys.stderr)
    return Record(unit, index, seconds, outcome)


def measure(wl, seconds: float, ctx) -> list[Record]:
    """Run units over the panel, in order and then repeating, until the next
    unit would end past ``seconds``; never fewer than ``wl.min_units``."""
    from workloads import DEFAULT_SEED

    records: list[Record] = []
    first: dict[int, Record] = {}
    start = time.perf_counter()
    while len(records) < wl.min_units or (
            time.perf_counter() - start
            + statistics.median(r.seconds for r in records) <= seconds):
        unit = len(records)
        rec = run_unit(wl, unit, unit % wl.panel)
        records.append(rec)
        prev = first.setdefault(rec.index, rec)
        got, want = rec.outcome, prev.outcome
        if got.error is None and prev is not rec and want.error is None and (
                got.iterations, got.digest) != (want.iterations, want.digest):
            got.error = (f"not deterministic: {got.iterations} iterations vs "
                         f"{want.iterations} on the repeated input")
        if (got.error is None and unit == 0 and ctx.seed == DEFAULT_SEED
                and not ctx.smoke and got.iterations != wl.baseline):
            got.error = f"{got.iterations} iterations, baseline is {wl.baseline}"
    return records


def setup_probe(workload: str, seed: int, smoke: bool) -> float:
    """Seconds a fresh interpreter takes to import the package and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(wl, args, ctx, setup_s) -> tuple[list[Record], dict, dict]:
    records = measure(wl, args.seconds, ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [setup_s] + [setup_probe(wl.name, args.seed, args.smoke)
                         for _ in range(SETUP_PROBES)]
    first_pass = [r for r in records if r.unit < wl.panel]
    metrics = {
        "setup_s": statistics.median(setup),
        "time_to_certified_s": statistics.median(r.seconds for r in records),
        "iterations": statistics.fmean(r.outcome.iterations for r in first_pass),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "time_samples": len(records),
        "setup_samples": setup,
    }
    return records, metrics, detail


def traced(wl, args, ctx) -> tuple[list[Record], dict, dict]:
    import layers
    import workloads
    from tracer import Tracer

    # each input runs untraced, then traced, so both see the same host speed
    plain, spans = [], []
    tracer = Tracer()
    for j in range(wl.panel):
        plain.append(run_unit(wl, j, j))
        layers.trace_call_sites(tracer, workloads)
        try:
            spans.append(run_unit(wl, j, j, tracer))
        finally:
            tracer.restore()
    for a, b in zip(plain, spans):
        if b.outcome.error is None and b.outcome.iterations != a.outcome.iterations:
            b.outcome.error = (f"traced run made {b.outcome.iterations} iterations, "
                               f"untraced {a.outcome.iterations}")
    path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(str(path))
    metrics = layers.layer_metrics(tracer, spans, plain)
    return plain + spans, metrics, {"spans_file": str(path.relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sassc" / "__init__.py").is_file():
        print(f"error: no sassc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sassc
    if Path(sassc.__file__).resolve().parent != (SRC / "sassc").resolve():
        print(f"error: imported sassc from {sassc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        ctx = Context(seed=args.seed, smoke=args.smoke, workdir=workdir)
        wl = WORKLOADS[args.workload](ctx)
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(setup_s)
            return 0
        if args.trace:
            records, metrics, detail = traced(wl, args, ctx)
        else:
            records, metrics, detail = end_to_end(wl, args, ctx, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(r.outcome.error is not None for r in records)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "env": environment(),
        "failed_frac": {"value": failed / len(records), "unit": "ratio"},
        "units": [{"unit": r.unit, "input": r.index, "seconds": r.seconds,
                   "iterations": r.outcome.iterations, "error": r.outcome.error}
                  for r in records],
        **detail,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
