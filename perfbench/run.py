"""Benchmark of the orlicz package: four workloads, end-to-end and per-layer.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload atoms-1m --seed 1 --seconds 18 --trace 0

One process, one client, closed loop: each call starts after the previous
one returned, and the `cli` workload runs one child process at a time.  The
seed generates every input; the library sees only those inputs.  A run sets
up its inputs seven times (setup_s is the median), discards one warm-up pass,
then repeats the workload's fixed pass until --seconds have elapsed; an
untraced run may stop inside its last pass.  Each timing is the mean over
its repeats, converted to the nominal speed of a reference computation
timed between the calls (see Gauge): the shared host's contention slows
everything by up to 1.8 times for seconds to minutes at a time, and the
reference slows in step.  Every output is checked afterwards against
references that do not call the library (see oracle.py).  With --trace 1,
passes alternate between untraced and traced (spans.py) and the per-layer
metrics replace the end-to-end ones.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
machine facts and counts.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One single-threaded process: the only BLAS call here (the dot product in
# modular) would otherwise leave a BLAS worker thread spinning on the second
# core, doubling the process's CPU time.  Child processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import oracle
import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
TOL = 1e-10  # luxemburg_norm's default tolerance, which every call here uses
NORM_QS = {1.0: "norm_s.q1", 100.0: "norm_s.q100", 1e5: "norm_s.q1e5"}
CHILD_TIMEOUT_S = 120

# The `orlicz` console script is `sys.exit(orlicz.cli.main())`; the child
# runs the same, and reports its import and main() times on stderr.
CLI_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from orlicz.cli import main\n"
    "t1 = time.perf_counter()\n"
    "rc = main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write('\\nperfbench-child %r %r\\n' % (t1 - t0, t2 - t1))\n"
    "sys.exit(rc)\n"
)
IMPORT_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import orlicz\n"
    "print(time.perf_counter() - t0)\n"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import orlicz from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "orlicz", "__init__.py")):
        raise SystemExit(f"error: no orlicz package under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import orlicz
    import orlicz.cli

    if not os.path.abspath(orlicz.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported orlicz from {orlicz.__file__}, not {SRC}")
    return orlicz


class Gauge:
    """The host's speed while a run measures, from fixed reference
    computations that never call the library.

    The vCPUs of a shared host run up to 1.8 times slower during stretches of
    contention lasting seconds to minutes; process CPU time slows with them,
    so neither a longer run nor CPU time removes it.  A reference slows in
    step, so every time metric is reported at the reference's nominal speed:
    measured time x NOMINAL_S / (reference time around the measurement).
    `sample` runs the references between calls, at most once per EVERY_S of
    measured work, so the samples spread evenly over the run.

    Three kernels match the three kinds of work here.  "calls" is small
    numpy arrays and Python float arithmetic, like a solve on a few atoms
    and its bisection loop.  "arrays" is the log-bump value_array arithmetic
    over 2^20 doubles, like the large-N kernel: it writes into buffers made
    before the library runs (see benchmark), so nothing the library
    allocates moves its time.  "process" starts a fresh interpreter
    that imports numpy, like an `orlicz` invocation or the set-up's import.
    NOMINAL_S is each kernel's typical time inside the benchmark's runs on
    the 2-vCPU Xeon VM the first numbers come from, rounded, so that times
    at nominal speed read as typical times on that VM.
    """

    EVERY_S = 0.25
    NOMINAL_S = {"calls": 0.018, "arrays": 0.028, "process": 0.18}
    N = 2**20

    def __init__(self, kinds):
        self.samples = {kind: [] for kind in sorted(kinds)}
        rng = np.random.default_rng(0)  # the same reference on every seed
        self.small = rng.lognormal(0.0, 1.0, 16)
        if "arrays" in self.samples:  # 32 MB, which peak_rss_mb includes
            self.large = rng.lognormal(0.0, 1.0, self.N)
            self.weights = rng.uniform(0.1, 1.0, self.N) / self.N
            self.u, self.lv = np.empty(self.N), np.empty(self.N)
        for kind in self.samples:
            getattr(self, "_" + kind)()  # warm-up, discarded
        self.last = time.perf_counter()

    def _calls(self):
        x, acc = self.small, 0.0
        for i in range(4000):
            y = np.log1p(x * (1.0 + i * 1e-7))
            acc = 0.5 * acc + float(np.exp(-y) @ x) + math.log(2.0 + i)
        return acc

    def _arrays(self):
        t, u, lv, acc = self.large, self.u, self.lv, 0.0
        for lam in (1.0, 2.0):
            np.divide(t, lam, out=u)
            np.log(u, out=lv)
            np.add(u, math.e, out=u)
            np.log(u, out=u)
            np.log(u, out=u)
            np.multiply(u, 50.0, out=u)
            np.multiply(lv, 2.0, out=lv)
            np.add(lv, u, out=lv)
            np.minimum(lv, 700.0, out=lv)
            np.exp(lv, out=lv)
            acc += float(self.weights @ lv)
        return acc

    @staticmethod
    def _process():
        subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT,
                       timeout=CHILD_TIMEOUT_S, check=True)

    def count(self):
        return len(next(iter(self.samples.values())))

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= self.EVERY_S:
            for kind, samples in self.samples.items():
                t0 = time.perf_counter()
                getattr(self, "_" + kind)()
                samples.append(time.perf_counter() - t0)
            self.last = time.perf_counter()

    def factor(self, kind, k=None):
        """Multiplier from measured to nominal seconds: for a call made
        after the k-th sample, from that sample and the next; without k,
        from all samples."""
        samples = self.samples[kind]
        near = samples if k is None else samples[max(k - 1, 0):k + 1]
        return self.NOMINAL_S[kind] / statistics.fmean(near)


class Op:
    """One timed call of a pass.  `call` marks the workload's unit of work
    (call_ms_*); `q_metric` names the norm_s.* metric it feeds, if any;
    `gauge` is the Gauge kernel that slows like it."""

    def __init__(self, key, fn, call=True, q_metric=None, gauge="arrays"):
        self.key, self.fn, self.call, self.q_metric = key, fn, call, q_metric
        self.gauge = gauge


def fingerprint(out):
    """The part of an output that must repeat exactly from pass to pass."""
    if hasattr(out, "norms"):
        return out.norms
    if hasattr(out, "value"):
        return out.value
    return out[:2]  # cli: (returncode, stdout)


def ladder_function(rng, stratum):
    """Lognormal atoms, 2-8, 10-16, 18-24 or 26-32 of them by stratum 0-3,
    with total mass in [0.3, 0.9] so the top atom's mass is below 1 and the
    gap to the sup is nonzero at every q."""
    n = 2 + 8 * stratum + int(rng.integers(0, 7))
    values = rng.lognormal(0.0, 1.0, n)
    weights = rng.uniform(0.1, 1.0, n)
    weights *= rng.uniform(0.3, 0.9) / weights.sum()
    return values, weights


def lognormal_function(rng, n):
    """Values lognormal(0, 1), weights uniform[0.1, 1] / n."""
    return rng.lognormal(0.0, 1.0, n), rng.uniform(0.1, 1.0, n) / n


class Workload:
    p = 2.0
    GAUGES = ("arrays",)  # the Gauge kernels its ops use
    probe = ()  # (values, weights, q) solved after timing, outside the ops

    def __init__(self, lib, seed, scale, workdir):
        self.lib, self.seed, self.scale, self.workdir = lib, seed, scale, workdir

    def build(self, arrays):
        """DiscreteMeasure/SampledFunction pair for (values, weights)."""
        values, weights = arrays
        n = len(values)
        return (
            self.lib.DiscreteMeasure(np.arange(n, dtype=float), weights),
            self.lib.SampledFunction(values),
        )

    def solve(self, mu, f, q):
        return self.lib.norm.luxemburg_norm(self.lib.young.YoungFunction.log_bump(self.p, q), f, mu)

    def traced_extra(self):
        """Library work run under the tracer after each traced pass."""

    def check(self, op, out):
        """Check one output; returns (ok, relative gap errors)."""
        values, weights, q = self.inputs_of[op.key]
        ok, errors = check_norm(values, weights, self.p, q, out.value)
        return ok and out.status.value == "finite", errors


def check_norm(values, weights, p, q, lam):
    """Residual within the library's contract, and the gap's relative error
    (mpmath for small functions, long double for large ones)."""
    resid = oracle.modular_residual(values, weights, p, q, lam)
    precise = len(values) <= 64
    return (
        resid <= oracle.residual_allowance(p, q, TOL),
        [oracle.gap_rel_error(lam, values, weights, p, q, precise)],
    )


class AtomsWorkload(Workload):
    """atoms-1m: three cold solves on 1e6 atoms; the kernel dominates."""

    atoms = 10**6

    def generate(self):
        self.arrays = lognormal_function(np.random.default_rng(self.seed), max(1000, int(self.atoms * self.scale)))

    def construct(self):
        self.mu, self.f = self.build(self.arrays)

    def ops(self):
        self.inputs_of = {}
        out = []
        for q, metric in NORM_QS.items():
            self.inputs_of[metric] = (*self.arrays, q)
            out.append(Op(metric, lambda q=q: self.solve(self.mu, self.f, q), q_metric=metric))
        return out


class SweepWorkload(AtomsWorkload):
    """sweep-100k: one limit_sweep over 8 q on 1e5 atoms, plus cold solves
    of the same function at q = 1, 100, 1e5 as the no-reuse control."""

    atoms = 10**5
    SCHEDULE = tuple(10.0 ** (1 + 4 * k / 7) for k in range(8))

    def ops(self):
        cold = super().ops()
        for op in cold:
            op.call = False
        sweep = Op("sweep", lambda: self.lib.limits.limit_sweep(self.f, self.mu, self.p, self.SCHEDULE))
        return [sweep] + cold

    def check(self, op, out):
        if op.key != "sweep":
            return super().check(op, out)
        values, weights = self.arrays
        ok = out.reference == float(np.abs(values).max()) and len(out.norms) == len(self.SCHEDULE)
        errors = []
        for q, lam, gap in zip(self.SCHEDULE, out.norms, out.gaps):
            good, err = check_norm(values, weights, self.p, q, lam)
            ok = ok and good and gap == abs(lam - out.reference)
            errors += err
        return ok, errors


class LadderWorkload(Workload):
    """q-ladder: 256 solves of small functions at p = 1 along 64 q from 1 to
    1e9 (7 per decade, so 1, 100 and 1e5 are hit exactly); per-call overhead
    dominates.  The probe adds q = 1e10 .. 1e15 for accuracy only."""

    p = 1.0
    GAUGES = ("calls",)
    SCHEDULE = tuple(10.0 ** (k / 7) for k in range(64))
    PROBE_QS = tuple(10.0 ** k for k in range(10, 16))

    def generate(self):
        rng = np.random.default_rng(self.seed)
        count = max(64, int(256 * self.scale))
        # Solve i runs at q = SCHEDULE[i % 64]: the four functions that share
        # a q come from the four size strata, so a q's cost does not hinge
        # on the sizes one seed happens to draw for it.
        self.functions = [ladder_function(rng, 4 * i // count) for i in range(count)]

    def construct(self):
        self.built = [self.build(arrays) for arrays in self.functions]

    def ops(self):
        self.inputs_of = {}
        out = []
        for i, (mu, f) in enumerate(self.built):
            q = self.SCHEDULE[i % len(self.SCHEDULE)]
            self.inputs_of[i] = (*self.functions[i], q)
            out.append(Op(i, lambda mu=mu, f=f, q=q: self.solve(mu, f, q), q_metric=NORM_QS.get(q),
                          gauge="calls"))
        n_probe = max(1, int(32 * self.scale))
        self.probe = [(*self.functions[i], q) for i in range(n_probe) for q in self.PROBE_QS]
        return out


class CliWorkload(Workload):
    """cli: the five `orlicz` invocations, each in a fresh interpreter, plus
    in-process solves at q = 1, 100, 1e5 of the CSV's function and three
    more of its size, two of each per pass; norm_s.* is the median over the
    four functions, as a single function's bisection step count moves
    with the seed by up to a quarter."""

    FUNCTIONS = 4
    GAUGES = ("arrays", "process")

    def generate(self):
        rng = np.random.default_rng(self.seed)
        n = max(100, int(1e4 * self.scale))
        self.functions = [lognormal_function(rng, n) for _ in range(self.FUNCTIONS)]
        self.arrays = self.functions[0]
        values, weights = self.arrays
        self.csv_path = os.path.join(self.workdir, "atoms.csv")
        # repr(float) keeps every digit and never writes numpy's np.float64(...)
        lines = ["x,weight,value"] + [
            f"{float(i)!r},{float(w)!r},{float(v)!r}" for i, (w, v) in enumerate(zip(weights, values))
        ]
        with open(self.csv_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def construct(self):
        self.built = [self.build(arrays) for arrays in self.functions]

    def argvs(self):
        return {
            "sweep": ["sweep", "--preset", "indicator:0.5", "--p", "1", "--q-grid", "100:100000:4:log"],
            "bounds": ["bounds", "--m", "0.5", "--p", "1", "--q-grid", "1:100000:6:log"],
            "compare": ["compare", "--p", "1", "--q", "1", "--format", "json"],
            "check-young": ["check-young", "--p", "1", "--q", "1000"],
            "norm": ["norm", "--input", self.csv_path, "--p", "2", "--q", "100"],
        }

    def ops(self):
        self.inputs_of = {}
        out = [Op(name, lambda argv=argv: run_cli_child(argv), gauge="process")
               for name, argv in self.argvs().items()]
        for j, (mu, f) in enumerate(self.built):
            for q, metric in NORM_QS.items():
                key = f"{metric}/{j}"
                self.inputs_of[key] = (*self.functions[j], q)
                op = Op(key, lambda mu=mu, f=f, q=q: self.solve(mu, f, q), call=False, q_metric=metric)
                out += [op] * 2
        self.references = None
        return out

    def in_process(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(argv)
        return rc, buf.getvalue().encode()

    def traced_extra(self):
        for argv in self.argvs().values():
            self.in_process(argv)

    def check(self, op, out):
        if op.key not in self.argvs():
            return super().check(op, out)
        if self.references is None:
            self.references = {k: self.in_process(a) for k, a in self.argvs().items()}
        rc, stdout, _ = out
        ok = rc == 0 and (rc, stdout) == self.references[op.key]
        rows = stdout.decode().splitlines()
        errors = []
        if op.key in ("sweep", "bounds"):
            # indicator of mass 0.5 at p = 1: the sup is 1 and the gap is lam - 1
            for row in rows[1:]:
                cells = row.split(",")
                q, lam = float(cells[0]), float(cells[1])
                g = oracle.gap_mp([1.0], [0.5], 1.0, q)
                reported = float(cells[2]) if op.key == "sweep" else lam - 1.0
                errors.append(float(abs(abs(reported) - abs(g)) / abs(g)))
        elif op.key == "norm":
            lam = float(rows[1].split(",")[0])
            values, weights = self.arrays
            good, errors = check_norm(values, weights, 2.0, 100.0, lam)
            ok = ok and good
        elif op.key == "check-young":
            ok = ok and all(r.split(",")[1] == "1" for r in rows[1:])
        elif op.key == "compare":
            ok = ok and all(entry["certified"] for entry in json.loads(stdout))
        return ok, errors


WORKLOADS = {
    "atoms-1m": AtomsWorkload,
    "sweep-100k": SweepWorkload,
    "q-ladder": LadderWorkload,
    "cli": CliWorkload,
}


def run_cli_child(argv):
    """(returncode, stdout, (import_s, main_s, wall_s)) of one `orlicz` run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    marker = proc.stderr.decode(errors="replace").rstrip().rsplit("\n", 1)[-1].split()
    if proc.returncode != 0 or len(marker) != 3 or marker[0] != "perfbench-child":
        raise RuntimeError(f"orlicz {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return proc.returncode, proc.stdout, (float(marker[1]), float(marker[2]), wall)


def child_import_seconds():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def measure_setup(wl, gauge):
    """SETUP_REPS times, after one discarded import: import (in a fresh
    interpreter), input generation and construction, each repetition
    between two gauge samples.  Returns each repetition's total at nominal
    speed and the median construction time."""
    child_import_seconds()  # warm-up: the first interpreter start is slower
    gauge.sample(force=True)
    totals, builds = [], []
    for _ in range(SETUP_REPS):
        t_import = child_import_seconds()
        t0 = time.perf_counter()
        wl.generate()
        t1 = time.perf_counter()
        wl.construct()
        t2 = time.perf_counter()
        gauge.sample(force=True)
        totals.append((t_import + t2 - t0) * gauge.factor("process", gauge.count() - 1))
        builds.append(t2 - t1)
    return totals, statistics.median(builds)


def run_pass(ops, gauge=None, deadline=None):
    """Records (op, seconds, output, exception, gauge samples before it),
    up to the first call that ends after `deadline`."""
    records = []
    for op in ops:
        k = gauge.count() if gauge else 0
        t0 = time.perf_counter()
        try:
            out, err = op.fn(), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, err = None, exc
        records.append((op, time.perf_counter() - t0, out, err, k))
        if gauge:
            gauge.sample()
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return records


def nominal_seconds(passes, gauge):
    """Each record's seconds at the gauge's nominal speed, from the mean of
    the two gauge samples that bracket it; the pass time is their sum."""
    out = []
    for traced, _, records in passes:
        scaled = []
        for op, seconds, res, err, k in records:
            scaled.append((op, seconds * gauge.factor(op.gauge, k), res, err))
        out.append((traced, sum(r[1] for r in scaled), scaled))
    return out


def op_means(passes, distinct):
    """Each distinct op's mean time over the passes' records."""
    return {op: statistics.fmean(s for _, _, rec in passes for o, s, _, _ in rec if o is op)
            for op in distinct}


def pass_seconds(ops, mean):
    """Mean time of one whole pass; the last pass of a run may be cut short."""
    return sum(mean[op] for op in ops)


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_probe(wl):
    """Solve the probe points; returns (gap errors of successes, failures)."""
    errors, failures = [], 0
    for values, weights, q in wl.probe:
        mu, f = wl.build((values, weights))
        try:
            res = wl.solve(mu, f, q)
        except wl.lib.NumericError:
            failures += 1
            continue
        errors.append(oracle.gap_rel_error(res.value, values, weights, wl.p, q, precise=True))
    return errors, failures


def machine_facts():
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def benchmark(args, workdir):
    cls = WORKLOADS[args.workload]
    # The gauges exist before the library runs: nothing the library
    # allocates can then change where the reference's buffers lie, which
    # moved the "arrays" kernel's time by up to 1.65 times.
    gauge, setup_gauge = Gauge(cls.GAUGES), Gauge({"process"})
    lib = import_library()
    wl = cls(lib, args.seed, args.scale, workdir)
    setup_reps, build_s = measure_setup(wl, setup_gauge)
    ops = wl.ops()
    layer_gauge = next(op.gauge for op in ops if op.call)  # per-layer times follow the unit of work
    tracer = spans.library_tracer(lib) if args.trace else None

    run_pass(ops)  # warm-up, discarded
    gauge.sample(force=True)
    passes = []  # (traced, seconds, records)
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            # An untraced run may end inside a pass once one pass is whole, so
            # a run lasts --seconds however long a pass is; a traced run keeps
            # whole passes, which the per-layer numbers are divided by.
            deadline = None if args.trace or not passes else t_start + args.seconds
            t0 = time.perf_counter()
            records = run_pass(ops, gauge, deadline)
            seconds = time.perf_counter() - t0
            if traced:
                wl.traced_extra()
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, seconds, records))
        if time.perf_counter() - t_start >= args.seconds and len(passes) >= (2 if args.trace else 1):
            break
    gauge.sample(force=True)
    measured = [(traced, s, [r[:4] for r in rec]) for traced, s, rec in passes]
    passes = nominal_seconds(passes, gauge)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    peak_rss_mb = usage / 1024.0  # ru_maxrss is in KiB on Linux

    # Checks: each distinct output fully, every repeat against the first.
    t_check = time.perf_counter()
    first, verdicts, gap_errors, failed, attempted = {}, {}, [], 0, 0
    for _, _, records in passes:
        for op, _, out, err in records:
            attempted += 1
            if err is not None:
                failed += 1
                continue
            if op.key not in first:
                first[op.key] = fingerprint(out)
                ok, errs = wl.check(op, out)
                verdicts[op.key] = ok
                gap_errors += errs
            if not verdicts[op.key] or fingerprint(out) != first[op.key]:
                failed += 1
    probe_errors, probe_failures = run_probe(wl)
    gap_errors += probe_errors
    check_s = time.perf_counter() - t_check

    untraced = [p for p in passes if not p[0]]
    traced_passes = [p for p in passes if p[0]]
    distinct = list(dict.fromkeys(ops))  # cli repeats one Op object per q
    mean = op_means(untraced, distinct)
    call_ms = [mean[op] * 1e3 for op in distinct if op.call]
    gap_err_max = max(gap_errors, default=1.0)  # nothing checked: no digits
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **machine_facts(),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced_passes),
        "distinct_calls": len(call_ms),
        "call_samples": sum(op.call for _, _, rec in untraced for op, _, _, _ in rec),
        "probe_points": len(wl.probe),
        "probe_numeric_errors": probe_failures,
        "gap_points": len(gap_errors),
        "check_and_oracle_s": check_s,
        "setup_reps_s": setup_reps,
        "mean_ms_by_op": {str(op.key): mean[op] * 1e3 for op in distinct} if len(distinct) <= 24 else None,
        "pass_s": [(traced, s) for traced, s, _ in passes],
        "gauge_samples": gauge.count(),
        "gauge_speed": {kind: gauge.factor(kind) for kind in gauge.samples},
        "measured_wall_s": pass_seconds(ops, op_means([p for p in measured if not p[0]], distinct)),
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_reps), "s"),
            "wall_s": (pass_seconds(ops, mean), "s"),
            "call_ms_p50": (percentile(call_ms, 50), "ms"),
            "call_ms_p90": (percentile(call_ms, 90), "ms"),
        }
        for metric in NORM_QS.values():
            metrics[metric] = (statistics.median(mean[op] for op in distinct if op.q_metric == metric), "s")
        metrics["gap_digits_min"] = (-math.log10(max(gap_err_max, 1e-30)), "digits")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        metrics = layer_metrics(tracer, len(traced_passes), build_s, gauge.factor(layer_gauge))
        metrics["trace.overhead_frac"] = (
            statistics.fmean(s for _, s, _ in traced_passes)
            / statistics.fmean(s for _, s, _ in untraced) - 1.0,
            "ratio",
        )
        metrics["norm.gap_rel_err_max"] = (gap_err_max, "ratio")
        metrics["probe.numeric_errors"] = (probe_failures, "count")
        if args.workload == "cli":
            child = [out[2] for _, _, rec in traced_passes for _, _, out, _ in rec
                     if isinstance(out, tuple)]
            per_pass = gauge.factor(layer_gauge) / len(traced_passes)
            metrics["cli.import_s"] = (sum(c[0] for c in child) * per_pass, "s")
            metrics["cli.main_s"] = (sum(c[1] for c in child) * per_pass, "s")
            metrics["cli.interpreter_s"] = (sum(c[2] - c[0] - c[1] for c in child) * per_pass, "s")
        else:
            for name in ("cli.import_s", "cli.main_s", "cli.interpreter_s"):
                metrics[name] = (0.0, "s")
    return info, failed, attempted, metrics


def layer_metrics(tr, n_passes, build_s, scale):
    """Per-pass layer numbers from the spans of the traced passes; times are
    multiplied by `scale`, the run's gauge factor to nominal speed."""
    solves = tr.calls["norm.luxemburg_norm"]
    atoms = tr.counts["young.value_array.atoms"]
    self_s = {name: t * scale for name, t in tr.self_s.items()}

    def per_solve(x):
        return x / solves if solves else 0.0

    return {
        "young.value_array.ns_per_atom": (self_s.get("young.value_array", 0.0) / atoms * 1e9 if atoms else 0.0, "ns"),
        "young.value_array.self_s": (self_s.get("young.value_array", 0.0) / n_passes, "s"),
        "young.value_array.atoms_per_solve": (per_solve(atoms), "count"),
        "norm.modular.calls_per_solve": (per_solve(tr.calls["norm.modular"]), "count"),
        "norm.iterations_per_solve": (per_solve(tr.counts["norm.iterations"]), "count"),
        "norm.modular.self_s": (self_s.get("norm.modular", 0.0) / n_passes, "s"),
        "norm.luxemburg_norm.self_s": (self_s.get("norm.luxemburg_norm", 0.0) / n_passes, "s"),
        "young.inverse.calls": (tr.calls["young.inverse"] / n_passes, "count"),
        "young.inverse.self_s": (self_s.get("young.inverse", 0.0) / n_passes, "s"),
        "limits.limit_sweep.self_s": (self_s.get("limits.limit_sweep", 0.0) / n_passes, "s"),
        "measure.build_s": (build_s * scale, "s"),
        "measure.load_csv_s": (self_s.get("measure.load_csv", 0.0) / n_passes, "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input by this factor (smoke test only)")
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        info, failed, attempted, metrics = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
