"""Benchmark of the jamag command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload anhyst-full --seed 1 --seconds 20 --trace 0

The run generates a small pool of inputs from ``--seed`` (see
``inputs.py``), imports ``jamag.cli`` from ``src/`` and calls
``jamag.cli.main(argv)`` as a closed loop with one client: the next command
starts when the last one returns, cycling through the pool until
``--seconds`` of wall time have passed, so each input runs several times.
Every command's outputs are checked (see ``workloads.py``), and every
repeat of an input must write byte-identical outputs to its first run.  A
command that exits non-zero or fails a check counts as failed.  Finally
the largest input runs once more in a fresh interpreter, as ``python -m
jamag`` runs it; it must write the same bytes again, and its peak memory is
reported.

On a shared machine the speed of identical work drifts by up to 60% for
tens of seconds at a time, so wall times of one run are not comparable with
those of another.  A fixed calibration kernel (``calibrate``) is therefore
timed before the first command and after every command, and each command's
wall time is rescaled by ``CAL_REF_S`` over the mean of the two kernel
times around it: the normalised time is what the command would take on a
machine where the kernel takes ``CAL_REF_S``.  The gated timings are
normalised; the raw median, throughput and tail are in the detail line.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each command plain and then with the span wrappers of
``tracer.py`` installed, requires identical outputs from the two, and
reports the per-layer metrics.

The last line of standard output is the result object; the line before it
holds the details: input hashes, sample counts, failure reasons and
accuracy against the generating parameters.  Both are also kept under
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Cap the BLAS and OpenMP pools before numpy is imported: one client must
# not use more threads than the machine has cores.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Outcome, Workload, parse_report  # noqa: E402

SETUP_REPEATS = 9
"""Fresh interpreters timed for ``setup_s``; the median is reported."""

PROCESS_TIMEOUT_S = 120.0

# What ``python -m jamag`` does, then print the process's own peak RSS.  The
# child's ru_maxrss would include this process's memory, inherited at fork.
_PROCESS = """\
import sys
from jamag.cli import main
code = main(sys.argv[1:])
sys.stderr.write([l for l in open("/proc/self/status") if l.startswith("VmHWM:")][0])
sys.exit(code)
"""

CAL_REF_S = 0.025
"""Calibration kernel time that defines one normalised second."""

_CAL_FIELDS = np.linspace(5.0, 1.0e4, 2000)


def calibrate() -> float:
    """Wall time of a fixed kernel mixing numpy and interpreter work, as jamag does."""
    t0 = time.perf_counter()
    for _ in range(10):
        inputs.anhysteretic(_CAL_FIELDS, 972.0, 1.4e-3, inputs.MS)
    inputs.rk4_loop(972.0, 1.4e-3, 0.1, 1000.0, inputs.MS, (0.0, 5000.0), 3000)
    return time.perf_counter() - t0


@dataclass
class Raw:
    """What one command did: its time, exit code and the files it wrote."""

    seconds: float
    code: int
    stderr: str
    report: bytes | None
    curve_sha: str | None


@dataclass
class Checked:
    case: int
    raw: Raw
    outcome: Outcome | None
    error: str | None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def normalised(times: list[float], cal: list[float]) -> list[float]:
    """Rescale ``times[i]`` by the calibration times ``cal[i]`` and ``cal[i + 1]`` around it."""
    return [t * CAL_REF_S / (0.5 * (cal[i] + cal[i + 1])) for i, t in enumerate(times)]


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import ``jamag.cli`` and exit,
    and the calibration times around them."""
    cmd = [sys.executable, "-c", "import jamag.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=PROCESS_TIMEOUT_S, capture_output=True)  # compiles .pyc
    samples, cal = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=PROCESS_TIMEOUT_S, capture_output=True)
        samples.append(time.perf_counter() - t0)
        cal.append(calibrate())
    return samples, cal


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def same_outputs(a: Raw, b: Raw) -> bool:
    return a.report is not None and a.report == b.report and a.curve_sha == b.curve_sha


class Runner:
    """Runs commands of one workload and checks what they write."""

    def __init__(self, workload: Workload, cases: list, work: Path, main) -> None:
        self.workload = workload
        self.cases = cases
        self.work = work
        self.report = work / "report.json"
        self.curve = work / "curve.csv"
        self.main = main
        self.first: dict[int, Raw] = {}

    def argv(self, case: int) -> list[str]:
        return self.workload.argv(self.cases[case], self.report, self.curve)

    def _outputs(self, seconds: float, code: int, stderr: str) -> Raw:
        report = self.report.read_bytes() if self.report.exists() else None
        curve_sha = _sha(self.curve) if self.workload.curve_flag else None
        return Raw(seconds, code, stderr[-500:], report, curve_sha)

    def _clear(self) -> None:
        self.report.unlink(missing_ok=True)
        self.curve.unlink(missing_ok=True)

    def run(self, case: int, main=None) -> Raw:
        """One in-process ``main(argv)`` call, timed."""
        argv = self.argv(case)
        self._clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = (main or self.main)(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is one failed command, not the end of the run
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - t0
        return self._outputs(seconds, code, err.getvalue())

    def run_process(self, case: int, env: dict) -> tuple[Raw, float]:
        """The same command in a fresh interpreter; returns its peak RSS in MB."""
        self._clear()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PROCESS, *self.argv(case)], env=env,
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        lines = proc.stderr.splitlines()
        rss_mb = int(lines[-1].split()[1]) * 1024 / 1e6 if lines and lines[-1].startswith("VmHWM:") else 0.0
        return self._outputs(seconds, proc.returncode, proc.stderr), rss_mb

    def check(self, case: int, raw: Raw) -> Checked:
        """Output checks, plus byte identity with the first run of the input."""
        try:
            if raw.code != 0:
                raise CheckFailed(f"exit code {raw.code}: {raw.stderr.strip()}")
            if raw.report is None:
                raise CheckFailed("no report written")
            outcome = self.workload.check(self.cases[case], parse_report(raw.report), self.curve)
            first = self.first.setdefault(case, raw)
            if not same_outputs(first, raw):
                raise CheckFailed(f"input {case} wrote different outputs than on its first run")
        except CheckFailed as err:
            return Checked(case, raw, None, str(err))
        return Checked(case, raw, outcome, None)


def closed_loop(pool: int, seconds: float, step) -> None:
    """Call ``step(case)`` over a pool of inputs in order until ``seconds``
    have passed and every input has run."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < pool or time.perf_counter() < deadline:
        step(i % pool)
        i += 1


def accuracy(done: list[Checked]) -> dict:
    ok = [c.outcome for c in done if c.outcome is not None]

    def top(attr: str):
        vals = [getattr(o, attr) for o in ok if getattr(o, attr) is not None]
        return max(vals) if vals else None

    fits = [o.fit_ok for o in ok if o.fit_ok is not None]
    return {
        "param_rel_err.max": top("param_rel_err"),
        "fit_rms_t.max": top("fit_rms_t"),
        "fit_ok_frac": sum(fits) / len(fits) if fits else None,
        "loop_dev.max": top("loop_dev"),
    }


def timing(done: list[Checked], cal: list[float]) -> dict:
    """Raw and normalised timings; ``cal[i]`` and ``cal[i + 1]`` surround command i.

    The normalised figures weigh every input of the pool once, by the median
    of its runs, so a partly finished last round does not shift the mix.
    """
    times = [c.raw.seconds for c in done]
    per_input: dict[int, list[float]] = {}
    for c, t in zip(done, normalised(times, cal)):
        per_input.setdefault(c.case, []).append(t)
    typical = [statistics.median(ts) for ts in per_input.values()]
    tail = stats.tail(times)
    return {
        "cmd_s.n": len(times),
        "cmd_s.p50": statistics.median(times),
        "cmds_per_s": len(times) / sum(times),
        "cmd_s.tail": None if tail is None else tail[0],
        "cmd_s.tail_pct": None if tail is None else tail[1],
        "norm_cmd_s.p50": statistics.median(typical),
        "norm_cmds_per_s": len(typical) / sum(typical),
        "cal_s.p50": statistics.median(cal),
        "cmd_s.samples": times,
        "cal_s.samples": cal,
    }


def pick(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "jamag" / "cli.py").is_file():
        print(f"error: {src / 'jamag' / 'cli.py'} not found; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    out = root / "perfbench" / "out"
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = out / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))

    setup, setup_cal = ([], []) if args.trace else measure_setup(env)
    t0 = time.perf_counter()
    cases = workload.make(args.seed, workload.pool, work / "inputs")
    gen_s = time.perf_counter() - t0

    sys.path.insert(0, str(src))
    modules = {m: importlib.import_module(f"jamag.{m}") for m in tracer.LAYERS}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: jamag imported from {modules['cli'].__file__}, not {src}", file=sys.stderr)
        return 2
    runner = Runner(workload, cases, work, modules["cli"].main)
    done: list[Checked] = []
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC, "gen_s": gen_s,
        "inputs": {p.name: inputs.sha256(p) for c in cases for p in c.files.values()},
    }
    errors: list[str] = []

    if args.trace:
        tr = tracer.Tracer()
        traced_main = tr.wrap("cli.main", runner.main)
        traced: list[Checked] = []

        def step(case: int) -> None:
            done.append(runner.check(case, runner.run(case)))
            tr.cmd = len(traced)
            with tr.installed(modules):
                raw = runner.run(case, traced_main)
            traced.append(runner.check(case, raw))

        closed_loop(len(cases), args.seconds, step)
        layer, coverage = tracer.layer_metrics(tr.spans)
        traced_p50 = statistics.median(c.raw.seconds for c in traced)
        layer["trace.overhead_frac"] = traced_p50 / statistics.median(c.raw.seconds for c in done) - 1.0
        for (root_s, self_sum), c in zip(coverage, traced):
            if abs(root_s - self_sum) > 1e-9 * max(root_s, 1.0) or root_s > c.raw.seconds:
                errors.append(f"span self times {self_sum!r} do not add up to {root_s!r}")
        detail.update({
            "spans": len(tr.spans),
            "self_time_cover.min": min(s / c.raw.seconds for (_, s), c in zip(coverage, traced)),
            "traced_cmd_s.p50": traced_p50,
            "layer_share": {k: layer[f"{k}.share"] for k in tracer.LAYERS},
        })
        tr.write(out / f"spans-{args.workload}-s{args.seed}.json.gz")
        metrics = pick(spec["per_layer"], layer)
        checked, extra = done + traced, 0
    else:
        cal = [calibrate()]

        def step(case: int) -> None:
            done.append(runner.check(case, runner.run(case)))
            cal.append(calibrate())

        closed_loop(len(cases), args.seconds, step)
        largest = max(range(len(cases)), key=lambda i: cases[i].size)
        raw, rss_mb = runner.run_process(largest, env)
        if largest not in runner.first or not same_outputs(runner.first[largest], raw):
            errors.append(f"a fresh interpreter on input {largest} did not reproduce its outputs")
        t = timing(done, cal)
        detail.update(t)
        detail.update({"setup_s.samples": setup, "setup_cal_s.samples": setup_cal,
                       "process_s": raw.seconds})
        values = {
            "setup_s": statistics.median(normalised(setup, setup_cal)),
            "norm_cmds_per_s": t["norm_cmds_per_s"],
            "norm_cmd_s.p50": t["norm_cmd_s.p50"],
            "peak_rss_mb": rss_mb,
        }
        metrics = pick(spec["end_to_end"], values)
        checked, extra = done, 1

    failures = [c.error for c in checked if c.error] + errors
    attempted = len(checked) + extra
    detail.update({
        "attempted": attempted, "failed": len(failures), "fail_frac": len(failures) / attempted,
        "failures": failures[:10], "accuracy": accuracy(done),
    })
    shutil.rmtree(work)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (out / f"{name}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
