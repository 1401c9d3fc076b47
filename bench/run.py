"""Benchmark of twophase-torsion: three workloads, run in one process.

    python3 bench/run.py --workload {sweep,oracle,criteria} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each run performs a fixed number of operations,
OPS_PER_SECOND[workload] * S, after untimed warm-up, so a faster program
finishes sooner instead of doing more work (the program's caches grow with
the number of operations).  Every output is checked against `reference`, or
against a property the method must have.  With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 the public functions of
the program are wrapped (see `spans`) and it holds the per-layer metrics.
The line before it records the environment: BLAS threads, versions, the
operation count and the tail percentile.  See README.md.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("sweep", "oracle", "criteria")
OPS_PER_SECOND = {"sweep": 90, "oracle": 3, "criteria": 3.5}
WARMUP_OPS = {"sweep": 30, "oracle": 1, "criteria": 1}
SETUP_SAMPLES = 9
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)
KMAX = 50
CRITERIA_SUITES = ("coefficients", "secondvar", "monotonicity")

# The host's speed drifts by up to 2x over seconds to minutes, and process CPU
# time drifts with it (README, "Steadiness").  A fixed piece of reference work
# that does not touch the program is timed before and after every operation,
# on the CPU that runs it, and the operation's latency and CPU time are scaled
# by REFERENCE_WORK_S over the mean of the two reference times.  0.84 ms is the
# reference work's 5th percentile over 3000 runs on the 2-vCPU Xeon VM where
# the benchmark was defined, so timings read as that machine's fast phase.
# Raw times go to the result file.
REFERENCE_WORK_S = 0.84e-3
_REFERENCE_MATRIX = np.eye(32) * 32.0 + np.random.default_rng(0).standard_normal((32, 32)) / 8.0


def reference_work() -> float:
    """Seconds taken by pure-Python arithmetic and small dense solves, the two
    kinds of work the program does."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(4000):
        total += (i * 0.5) ** 0.5
        table[i & 63] = total
    for _ in range(20):
        np.linalg.solve(_REFERENCE_MATRIX, _REFERENCE_MATRIX[0])
    return time.perf_counter() - start


END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def require_program() -> None:
    if not (SRC / "twophase_torsion" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'twophase_torsion'}")


def load_program():
    """Import twophase_torsion from this checkout's src/, and nothing else."""
    require_program()
    sys.path.insert(0, str(SRC))
    import twophase_torsion
    from twophase_torsion import cli

    if Path(twophase_torsion.__file__).resolve().parent != SRC / "twophase_torsion":
        sys.exit(f"bench: imported twophase_torsion from {twophase_torsion.__file__}, not {SRC}")
    return cli


# -- inputs: a pure function of (workload, seed, count) -------------------------


def make_inputs(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        # N in {2,3,4}, R in [0.2,0.8], sigma = e^(+-u) with u in [0.1,2.3].  u >= 0.1
        # keeps sigma clear of the verdict fault near 1, R >= 0.2 with k <= 50 clear
        # of the overflow (both in CHANGES.md, FOUND).
        return [
            (rng.choice((2, 3, 4)), rng.uniform(0.2, 0.8), math.exp(rng.choice((-1, 1)) * rng.uniform(0.1, 2.3)))
            for _ in range(count)
        ]
    if workload == "oracle":
        channels = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))  # inner, outer, coupled
        inputs = []
        for _ in range(count):
            alpha_in, alpha_out = rng.choice(channels)
            inputs.append(
                {
                    "dim": 2,
                    "radius": rng.uniform(0.3, 0.7),
                    "sigma": math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
                    "modes": [
                        {"degree": rng.randint(1, 4), "order": rng.choice((1, 2)), "alpha_in": alpha_in, "alpha_out": alpha_out}
                    ],
                    "exact_area": True,
                    "t0": 0.01,
                    "levels": 2,
                    "radial_points": 256,
                    "angular_modes": 32,
                }
            )
        return inputs
    return [None] * count  # criteria: the suites fix their own grids


# -- operations ------------------------------------------------------------------


class Sample(NamedTuple):
    """One timed operation: raw wall and CPU seconds, and the factor that
    scales them to the reference speed."""

    ok: bool
    seconds: float
    cpu: float
    scale: float


def speed_scale(before: float, after: float) -> float:
    return 2 * REFERENCE_WORK_S / (before + after)


class Workload:
    """Runs operations into a work directory and checks what they wrote.

    An operation fails when it raises or a command reports an error; its
    output is checked only when it did not fail.
    """

    def __init__(self, name: str, cli, work: Path, tracer=None) -> None:
        self.name, self.cli, self.work, self.tracer = name, cli, work, tracer
        self.child_rss_kb: list[float] = []  # criteria: peak RSS of each forked operation
        self.child_growth_kb: list[float] = []  # criteria: RSS growth inside each operation
        self.last_reference: float | None = None  # reference time after the previous operation

    def prepare(self, index: int, item) -> None:
        if self.name == "oracle":
            (self.work / f"config{index}.json").write_text(json.dumps(item))

    def _op_span(self):
        return self.tracer.op() if self.tracer is not None else contextlib.nullcontext()

    def measure(self, index: int, item) -> Sample:
        if self.name == "criteria":
            return self._measure_forked(index)
        before = self.last_reference if self.last_reference is not None else reference_work()
        cpu_start, start = cpu_seconds(), time.perf_counter()
        try:
            with self._op_span():
                ok = self._run(index, item)
        except Exception as exc:
            print(f"bench: operation {index} failed: {exc!r}", file=sys.stderr)
            ok = False
        seconds, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        self.last_reference = reference_work()
        return Sample(ok, seconds, cpu, speed_scale(before, self.last_reference))

    def _run(self, index: int, item) -> bool:
        main, work = self.cli.main, self.work
        if self.name == "sweep":
            dim, radius, sigma = item
            args = ["--dim", str(dim), "--radius", repr(radius), "--sigma", repr(sigma), "--kmax", str(KMAX)]
            return (
                main(["classify", *args, "--out", str(work / f"classify{index}.json")]) == 0
                and main(["spectrum", *args, "--out", str(work / f"spectrum{index}.csv")]) == 0
            )
        return main(["oracle", "--config", str(work / f"config{index}.json"), "--out", str(work / f"oracle{index}.json")]) == 0

    def _measure_forked(self, index: int) -> Sample:
        """One cold operation in a child forked from a parent that has only
        imported the package: verify x3 and fidelity through cli.main.  The
        child times itself and its reference work, on the CPU it runs on."""
        sys.stdout.flush()
        sys.stderr.flush()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                status = self._criteria_child(index)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        _, status, usage = os.wait4(pid, 0)
        self.child_rss_kb.append(usage.ru_maxrss)
        status_file = self.work / f"status{index}.json"
        if status != 0 or not status_file.is_file():
            return Sample(False, time.perf_counter() - start, usage.ru_utime + usage.ru_stime, 1.0)
        timing = json.loads(status_file.read_text())["timing"]
        return Sample(True, timing["seconds"], timing["cpu"], speed_scale(timing["before"], timing["after"]))

    def _criteria_child(self, index: int) -> int:
        sys.stdout = open(os.devnull, "w")  # verify also prints its report
        if self.tracer is not None:
            self.tracer.clear()  # the spans of earlier operations belong to the parent
        work = self.work
        before = reference_work()
        rss_before = rss_kb()
        cpu_start, start = time.process_time(), time.perf_counter()
        with self._op_span():
            codes = {
                suite: self.cli.main(["verify", suite, "--out", str(work / f"verify-{suite}{index}.txt")])
                for suite in CRITERIA_SUITES
            }
            codes["fidelity"] = self.cli.main(["fidelity", "--out", str(work / f"fidelity{index}.json")])
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        growth = rss_kb() - rss_before
        timing = {"seconds": seconds, "cpu": cpu, "before": before, "after": reference_work()}
        if self.tracer is not None:
            growth -= self.tracer.nbytes() / 1024
            self.tracer.save(work / f"trace{index}.npz", compressed=False)
        if codes["fidelity"] != 0:
            return 1
        status = {"codes": codes, "rss_growth_kb": growth, "timing": timing}
        (work / f"status{index}.json").write_text(json.dumps(status))
        return 0

    def check(self, index: int, item) -> list[str]:
        # imported here so that the set-up probes do not pay for mpmath
        import checks
        import reference

        work = self.work
        if self.name == "sweep":
            ref_rows = reference.spectrum(*item, KMAX)
            document = json.loads((work / f"classify{index}.json").read_text())
            csv_text = (work / f"spectrum{index}.csv").read_text()
            return checks.check_classify(document, item, KMAX, ref_rows) + checks.check_spectrum_csv(
                csv_text, item, KMAX, ref_rows
            )
        if self.name == "oracle":
            return checks.check_oracle(json.loads((work / f"oracle{index}.json").read_text()), item)
        if self.tracer is not None:
            self.tracer.merge(work / f"trace{index}.npz")
        status = json.loads((work / f"status{index}.json").read_text())
        self.child_growth_kb.append(status["rss_growth_kb"])
        codes = status["codes"]
        problems = []
        for suite in CRITERIA_SUITES:
            text = (work / f"verify-{suite}{index}.txt").read_text()
            problems += checks.check_verify(text, suite, codes[suite])
        return problems + checks.check_fidelity(json.loads((work / f"fidelity{index}.json").read_text()))


def op_count(args: argparse.Namespace) -> int:
    return max(1, round(OPS_PER_SECOND[args.workload] * args.seconds))


def rss_kb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024


def cpu_seconds() -> float:
    """User + system time of this process and of every child it waited for."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def tail_percentile(count: int) -> int:
    """The highest of TAIL_PERCENTILES with at least 10 samples beyond it."""
    return next(p for p in TAIL_PERCENTILES if count - math.ceil(p / 100 * count) >= 10 or p == 50)


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def measure_setup(workload: str, seed: int, seconds: float) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported the
    program and generated the workload's inputs, several times: raw, and
    scaled by the reference work that each interpreter times once it is ready."""
    raw, scaled = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            raw.append(time.perf_counter() - start)
            reference = probe.stdout.read()
        if ready.strip() != "ready" or probe.returncode != 0:
            sys.exit("bench: set-up probe failed")
        scaled.append(raw[-1] * REFERENCE_WORK_S / float(reference))
    return raw, scaled


def environment(workload: str, seed: int, ops: int) -> dict:
    import scipy

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):  # show_config differs between releases
            return "unknown"

    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "tail_percentile": tail_percentile(ops),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
    }


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """The result line and the per-operation samples of one run."""
    setup = None if args.trace else measure_setup(args.workload, args.seed, args.seconds)
    cli = load_program()
    ops = op_count(args)
    warmup = WARMUP_OPS[args.workload]
    inputs = make_inputs(args.workload, args.seed, warmup + ops)

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = None
        workload = Workload(args.workload, cli, work)
        for index, item in enumerate(inputs):
            workload.prepare(index, item)
        for index in range(warmup):
            workload.measure(index, inputs[index])
        workload.child_rss_kb.clear()
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            workload.tracer = tracer

        rss_before = rss_kb()
        for _ in range(10):  # the first runs of the reference work are slow
            workload.last_reference = reference_work()
        timed = [(index, workload.measure(index, inputs[index])) for index in range(warmup, warmup + ops)]
        rss_growth = rss_kb() - rss_before
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        problems, failed = [], 0
        for index, sample in timed:
            if sample.ok:
                problems += workload.check(index, inputs[index])
            else:
                failed += 1
        for problem in problems[:20]:
            print(f"bench: wrong output: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = ops - failed
    latencies = [sample.seconds * sample.scale for _, sample in timed]
    if args.trace:
        metrics = spans.layer_metrics(tracer, ops)
        if args.workload == "criteria":
            growth = statistics.fmean(workload.child_growth_kb) if workload.child_growth_kb else 0.0
        else:
            growth = (rss_growth - tracer.nbytes() / 1024) / ops
        metrics[spans.RSS_GROWTH[0]] = growth
        units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
        units[spans.DISTINCT_SHARE[0]] = spans.DISTINCT_SHARE[1]
        units[spans.RSS_GROWTH[0]] = spans.RSS_GROWTH[1]
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        ordered = sorted(latencies)
        if args.workload == "criteria":
            peak_kb = max(workload.child_rss_kb)
        metrics = {
            "setup_s": statistics.median(setup[1]),
            "throughput_ops_s": done / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * nearest_rank(ordered, tail_percentile(ops)),
            "cpu_ms_per_op": 1e3 * sum(sample.cpu * sample.scale for _, sample in timed) / ops,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    samples = {
        "latency_ms": [1e3 * value for value in latencies],
        "raw_latency_ms": [1e3 * sample.seconds for _, sample in timed],
        "scale": [sample.scale for _, sample in timed],
        "setup_s": setup and setup[1],
        "raw_setup_s": setup and setup[0],
    }
    return result, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_program()

    if args.setup_probe:
        load_program()
        make_inputs(args.workload, args.seed, WARMUP_OPS[args.workload] + op_count(args))
        print("ready", flush=True)
        times = [reference_work() for _ in range(10)]  # the first runs are slow
        print(statistics.median(times[5:]))
        return 0

    header = environment(args.workload, args.seed, op_count(args))
    result, samples = run(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": header, "result": result, "samples": samples}) + "\n"
    )
    print(json.dumps({"environment": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
