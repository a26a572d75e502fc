#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the zeroconf-cost executables.

usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It builds the shipped executables and the benchmark's own OCaml tools
with dune, generates the workload's inputs from --seed (perfbench/gen.ml,
Numerics.Rng), and measures for --seconds seconds.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured on the shipped executables with nothing traced.  With --trace 1
they are the per-layer metrics, from perfbench/trace.ml replaying the
same inputs in fresh processes, one per phase.  The line before it is a
record of the run with its provenance (commit or source hash, nproc,
OCaml version, seed), failed_frac and the input's properties.

Workloads (names are fixed; later changes refer to them):

  points      40k unique point queries, `zeroconf_cli batch -j 1`: the
              per-query layers (parse, plan, key, cache, per-column
              cursor set-up, formatting) do the work.
  sweeps      400 n-sweeps ns=1:512 at distinct r, `batch -j 1`: kernel
              streaming and answer formatting do the work.
  figures     `figures OUT -j 1`: the paper-reproduction run, the one
              workload where the cache can hit and SVG/CSV are written.
              It is timed at -j 1 because on a 2-vCPU KVM guest (Xeon,
              2.1 GHz) the -j 2 wall time switches between two modes,
              about 95 and 160 ms, with the hypervisor's steal time.  The
              traced run times the same Experiments calls at 1 and 2
              jobs, so Exec.Parallel's fan-out shows in exec.speedup.
  crosscheck  `zeroconf_cli crosscheck -n 4 -r 2` on the four presets
              (cost and error, 20k trials, seed 42): the only workload
              running the Monte-Carlo and DTMC routes.

A round is every timed invocation of a workload once.  points_per_s
and cpu_s are totals over a run's rounds (points over wall seconds, CPU
seconds over invocations) after the tenth of rounds with the lowest and
the tenth with the highest value are dropped.  Totals, not medians: on a
shared 2-vCPU KVM guest the same invocation takes anywhere from about
0.6 to 1.0 times its slow time, depending on how contended the host
core is at the moment, and the median of such a sample jumps between
modes as their mix drifts, where the total moves with the mix.  setup_s
is the median wall time of the same command on its smallest input (one
query line for batch, one query at --trials 1 for crosscheck, and
--help=plain for figures, which has no --version), run a few times
after every invocation.

The contention drifts over minutes, by up to about 25% between runs of
identical code, and moves every workload together.  So after every
timed invocation the run also times ref.exe, fixed work built from
perfbench/ref.ml alone, for about 15% of the invocation's wall time and
at least once, and scales the times to the reference's speed:
with `slowdown` the reference's trimmed mean time over REF_S,
points_per_s is multiplied by the wall slowdown, and cpu_s and setup_s
are divided by the CPU and the wall slowdown.  When ref.exe takes REF_S
the figures are the measured ones; otherwise they are what would have
been measured had it.  The record line holds the unscaled values and
the slowdowns.  crosscheck is not scaled: its Monte-Carlo trials (a
fresh 64 KiB address pool each) do not slow with the host as ref.exe
does, nor as a reference doing that pool work does, and either scaling
made its run-to-run spread several times wider.

Output checks count `failed` points out of `attempted`:

  points, sweeps  every printed line equals the one built from the
                  closed forms (Cost.mean, Reliability.*) by gen.exe,
                  value in the CLI's %.10g; missing lines fail.
  figures         the -j 1 tree is byte-identical to a -j 2 tree made
                  before measuring; otherwise every point fails.
  crosscheck      one point per (query, backend) row: analytic and
                  kernel equal the closed form, dtmc is within 1e-9 of
                  it and the reported divergence is at most 1e-9, and
                  the Monte-Carlo interval covers the closed form.
  A non-zero exit fails every point of that invocation.

`correct` is false when any check fails, except for the Monte-Carlo miss
on wireless-worst-case mean cost that EXPERIMENTS.md V4 documents (plain
Monte Carlo cannot price that preset's rare-event cost term).  That miss
still counts in `failed`, so crosscheck's failed_frac is 1/32 at the
commit that added this benchmark.

Children get a pinned environment (ZEROCONF_JOBS set, LC_ALL=C,
TERM=dumb) and write standard output to one file under perfbench/_out,
which also holds the generated inputs.
"""

import argparse
import filecmp
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

OUT = os.path.join("perfbench", "_out")
BIN = os.path.join("_build", "default")
CLI = os.path.join(BIN, "bin", "zeroconf_cli.exe")
FIGURES = os.path.join(BIN, "bin", "figures.exe")
GEN = os.path.join(BIN, "perfbench", "gen.exe")
TRACE = os.path.join(BIN, "perfbench", "trace.exe")
REF = os.path.join(BIN, "perfbench", "ref.exe")
TARGETS = ["./bin/zeroconf_cli.exe", "./bin/figures.exe",
           "./perfbench/gen.exe", "./perfbench/trace.exe",
           "./perfbench/ref.exe"]

CHILD_TIMEOUT_S = 150
# ref.exe's typical wall and CPU seconds on the host the benchmark was
# set up on (2-vCPU KVM guest, Xeon at 2.1 GHz)
REF_S = 0.065
# ref.exe runs for about this share of the measured wall time, so that
# its mean is as steady as the workload's
REF_SHARE = 0.15
SETUP_PER_INVOCATION = 3
KNOWN_MISSES = {("wireless-worst-case", "mean-cost", "mc")}
CROSSCHECK_ROWS = ("analytic", "kernel", "dtmc", "mc")
MAX_DIVERGENCE = 1e-9


class Failure(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(jobs):
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "LC_ALL": "C", "TERM": "dumb", "ZEROCONF_JOBS": str(jobs)}


class Sample:
    def __init__(self, wall, cpu, rss_mb, code):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code


def invoke(argv, jobs, stdout_path):
    """Run argv to completion; wall time, rusage CPU and peak RSS."""
    err_path = os.path.join(OUT, "stderr.txt")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(jobs))
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def run_tool(argv, what):
    sample = invoke(argv, 1, os.path.join(OUT, "tool-stdout.txt"))
    if sample.code != 0:
        log(read(os.path.join(OUT, "stderr.txt"))[-2000:])
        raise Failure(f"{what} exited with {sample.code}")
    return sample


def build():
    if not os.path.isfile("dune-project"):
        raise Failure("run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                          stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=840)
    if proc.returncode != 0:
        raise Failure(f"dune build exited with {proc.returncode}")


def read(path):
    with open(path, errors="replace") as f:
        return f.read()


# ---------------------------------------------------------------- workloads

class Workload:
    """One workload: inputs, the command timed, its checks and trace.
    `points` is what one timed invocation attempts; `scaled`, whether
    its times are scaled by ref.exe's slowdown."""

    scaled = True

    def __init__(self, seed):
        self.dir = os.path.join(OUT, self.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        run_tool([GEN, self.name, str(seed), self.dir], "gen.exe")
        with open(os.path.join(self.dir, "input.json")) as f:
            self.input = json.load(f)
        self.stdout = os.path.join(OUT, "stdout.txt")

    def path(self, name):
        return os.path.join(self.dir, name)

    def round(self):
        """Invoke the timed command once per input; [(sample, points,
        failed, unexpected)], where unexpected counts failures that are
        not a documented miss."""
        return [self.checked(argv, check) for argv, check in self.invocations()]

    def checked(self, argv, check):
        sample = invoke(argv, 1, self.stdout)
        if sample.code != 0:
            return sample, self.points, self.points, self.points
        failed, unexpected = check()
        return sample, self.points, failed, unexpected

    def setup(self):
        sample = invoke(self.setup_argv, 1,
                        os.path.join(OUT, "setup-stdout.txt"))
        if sample.code != 0:
            raise Failure(f"set-up command exited with {sample.code}")
        return sample.wall


class Batch(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        self.expected = read(self.path("expected.txt")).splitlines()
        self.points = len(self.expected)
        self.setup_argv = [CLI, "batch", "-j", "1", self.path("setup.txt")]

    def invocations(self):
        return [([CLI, "batch", "-j", "1", self.path("queries.txt")],
                 self.check)]

    def check(self):
        lines = [l for l in read(self.stdout).splitlines()
                 if not l.startswith("#")]
        failed = sum(1 for i, want in enumerate(self.expected)
                     if i >= len(lines) or lines[i] != want)
        failed = min(len(self.expected),
                     failed + max(0, len(lines) - len(self.expected)))
        return failed, failed

    def traced(self):
        pipeline = trace_phase("pipeline", self.dir)
        backend = trace_phase("backend", self.dir)
        return pipeline, backend


class Points(Batch):
    name = "points"


class Sweeps(Batch):
    name = "sweeps"


class Figures(Workload):
    name = "figures"

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = self.path("reference")
        sample = invoke([FIGURES, self.reference, "-j", "2"], 2, self.stdout)
        if sample.code != 0:
            raise Failure(f"figures -j 2 exited with {sample.code}")
        self.tree = self.path("tree")
        self.points = self.input["points"]
        self.setup_argv = [FIGURES, "--help=plain"]

    def invocations(self):
        shutil.rmtree(self.tree, ignore_errors=True)
        return [([FIGURES, self.tree, "-j", "1"], self.check)]

    def check(self):
        want = sorted(os.listdir(self.reference))
        same = (os.path.isdir(self.tree)
                and sorted(os.listdir(self.tree)) == want
                and all(filecmp.cmp(os.path.join(self.reference, f),
                                    os.path.join(self.tree, f), shallow=False)
                        for f in want))
        failed = 0 if same else self.points
        return failed, failed

    def traced(self):
        return (trace_phase("figures-1", self.dir),
                trace_phase("figures-2", self.dir))


class Crosscheck(Workload):
    name = "crosscheck"
    scaled = False

    def __init__(self, seed):
        super().__init__(seed)
        self.exact = {}
        for line in read(self.path("crosscheck.txt")).splitlines():
            preset, cost, error = line.split()
            self.exact[preset] = {"mean-cost": cost,
                                  "error-probability": error}
        self.points = 2 * len(CROSSCHECK_ROWS)
        self.setup_argv = [CLI, "crosscheck", "--scenario", "figure2",
                           "-n", "4", "-r", "2", "--trials", "1",
                           "--quantity", "mean-cost"]

    def invocations(self):
        return [([CLI, "crosscheck", "--scenario", preset, "-n", "4",
                  "-r", "2"], lambda preset=preset: self.check(preset))
                for preset in self.exact]

    def check(self, preset):
        blocks = {}
        for block in read(self.stdout).split("crosscheck: ")[1:]:
            blocks[block.split(" ", 1)[0]] = block
        failed = unexpected = 0
        for quantity, exact in self.exact[preset].items():
            bad = self.failed_rows(blocks.get(quantity, ""), exact)
            failed += len(bad)
            unexpected += sum(1 for row in bad
                              if (preset, quantity, row) not in KNOWN_MISSES)
        return failed, unexpected

    @staticmethod
    def failed_rows(block, exact):
        rows = {}
        for line in block.splitlines():
            m = re.match(r"(analytic|kernel|dtmc|mc)\s+(.+?)\s+\d+\s+[\d.]+$",
                         line)
            if m:
                rows[m.group(1)] = m.group(2)
        div = re.search(r"max relative divergence \(analytic/kernel/dtmc\) "
                        r"= (\S+)", block)
        covered = re.search(r"monte carlo inside its 95% CI: true", block)
        x = float(exact)
        bad = []
        for row in CROSSCHECK_ROWS:
            value = rows.get(row)
            if value is None:
                bad.append(row)
            elif row in ("analytic", "kernel"):
                if value != exact:
                    bad.append(row)
            elif row == "dtmc":
                if not (div and float(div.group(1)) <= MAX_DIVERGENCE
                        and relative(float(value), x) <= MAX_DIVERGENCE):
                    bad.append(row)
            elif not (covered and covers(value, x)):
                bad.append(row)
        return bad

    def traced(self):
        return (Trace.merge([trace_phase(f"crosscheck-{i}", self.dir)
                             for i in range(len(self.exact))]),)


def relative(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


def covers(value, x):
    """Whether the printed interval "MEAN [LO, HI]" holds x, allowing
    for its %.6g rounding and for the crosscheck's 1e-12 slack."""
    m = re.match(r"\S+ \[(\S+), (\S+)\]$", value)
    if not m:
        return False
    lo, hi = float(m.group(1)), float(m.group(2))
    slack = 1e-12 * max(1.0, abs(lo), abs(hi)) + 5e-6 * max(abs(lo), abs(hi))
    return lo - slack <= x <= hi + slack


WORKLOADS = {w.name: w for w in (Points, Sweeps, Figures, Crosscheck)}


# ------------------------------------------------------------------ tracing

class Trace:
    def __init__(self, spans, counters, wall):
        self.spans, self.counters, self.wall = spans, counters, wall

    @staticmethod
    def load(path, wall):
        with open(path) as f:
            data = json.load(f)
        return Trace(data["spans"], data["counters"], wall)

    @staticmethod
    def merge(traces):
        """One trace of several processes: spans together, counters and
        wall times summed."""
        counters = {}
        for t in traces:
            for k, v in t.counters.items():
                counters[k] = counters.get(k, 0.0) + v
        return Trace([s for t in traces for s in t.spans], counters,
                     sum(t.wall for t in traces))

    def seconds(self, name=None, prefix=None):
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans
                   if s["name"] == name
                   or (prefix and s["name"].startswith(prefix))) / 1e9

    def count(self, name):
        return self.counters.get(name, 0.0)


def trace_phase(phase, directory):
    sample = run_tool([TRACE, phase, directory], f"trace.exe {phase}")
    return Trace.load(os.path.join(directory, f"trace-{phase}.json"),
                      sample.wall)


def ratio(num, den):
    return num / den if den else 0.0


def planner_metrics(t):
    plans = t.count("planner.plans")
    return {"planner.plans": plans,
            "planner.ns_per_plan": ratio(t.seconds("planner.plan") * 1e9, plans)}


def cache_metrics(t):
    lookups, hits = t.count("cache.lookups"), t.count("cache.hits")
    return {"cache.lookups": lookups, "cache.hits": hits,
            "cache.hit_ratio": ratio(hits, lookups)}


def kernel_metrics(t):
    ns = t.seconds("backend.kernel") * 1e9
    evals, columns = t.count("kernel.evals"), t.count("kernel.columns")
    return {"kernel.evals": evals, "kernel.columns": columns,
            "kernel.ns_per_eval": ratio(ns, evals),
            "kernel.ns_per_column": ratio(ns, columns)}


def layer_metrics(workload, e2e_wall, traces):
    """Per-layer metrics of one traced round.  `library` is the time the
    replay spent inside the library; the rest of the untimed CLI's wall
    time is bin/ glue (and process start-up)."""
    if isinstance(workload, Batch):
        pipeline, backend = traces
        run_batch = pipeline.seconds("executor.run_batch")
        closed = backend.seconds("closed_form")
        m = {**planner_metrics(pipeline), **cache_metrics(pipeline),
             **kernel_metrics(backend),
             "plan.key_ns_per_plan": ratio(pipeline.seconds("plan.key") * 1e9,
                                           pipeline.count("planner.plans")),
             "plan.key_bytes": pipeline.count("plan.key_bytes"),
             "cache.ns_per_lookup": ratio(pipeline.seconds("cache.replay") * 1e9,
                                          pipeline.count("cache.replay_lookups")),
             "executor.run_batch_s": run_batch,
             "executor.overhead_s":
                 run_batch - backend.seconds(prefix="backend."),
             "closed_form_s": closed,
             "engine.overhead_x": ratio(run_batch, closed)}
        library = pipeline.seconds("planner.plan") + run_batch
        replay = pipeline
    elif isinstance(workload, Figures):
        serial, parallel = traces
        experiments = serial.seconds("experiments")
        parallel_s = parallel.seconds("experiments")
        m = {**cache_metrics(serial),
             "experiments.s": experiments,
             "exec.speedup": ratio(experiments, parallel_s),
             "exec.cpu_per_wall": ratio(parallel.count("experiments.cpu_s"),
                                        parallel_s),
             "output.write_s": serial.seconds("output"),
             "output.bytes": serial.count("output.bytes")}
        library = experiments + serial.seconds("output")
        replay = serial
    else:
        (replay,) = traces
        trials, solves = replay.count("mc.evals"), replay.count("dtmc.evals")
        mc_us = ratio(replay.seconds("backend.mc") * 1e6, trials)
        pool_us = ratio(replay.seconds("address_pool.setup") * 1e6,
                        replay.count("address_pool.trials"))
        m = {**planner_metrics(replay), **kernel_metrics(replay),
             "mc.trials": trials,
             "mc.us_per_trial": mc_us,
             "address_pool.setup_share": ratio(pool_us, mc_us),
             "dtmc.solves": solves,
             "dtmc.ms_per_solve": ratio(replay.seconds("backend.dtmc") * 1e3,
                                        solves)}
        library = (replay.seconds("planner.plan")
                   + replay.seconds(prefix="backend."))
    glue = e2e_wall - library
    m.update({"cli.glue_s": glue,
              "cli.glue_share": ratio(glue, e2e_wall),
              "trace.overhead_s": replay.wall - e2e_wall})
    return m


# --------------------------------------------------------------- provenance

def source_digest():
    """A hash of the measured sources: the one code identity a record
    has when it is run from a copy of the tree that is not a git
    checkout, where commit() is None."""
    digest = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("_"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


# --------------------------------------------------------------------- main

def measure(workload, seconds, trace):
    """Rounds until `seconds` have passed; one round is every timed
    invocation of the workload, then SETUP_PER_INVOCATION set-up runs for
    each, ref.exe for REF_SHARE of their wall time but at least once for
    each if the workload is scaled, and, traced, the replay phases."""
    workload.setup()  # loads the executable before anything is timed
    rounds, setups, refs, layers = [], [], [], []
    attempted = failed = unexpected = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        results = workload.round()
        rounds.append([(sample, att if sample.code == 0 else 0)
                       for sample, att, _, _ in results])
        for sample, att, fail, unexp in results:
            attempted, failed, unexpected = (attempted + att, failed + fail,
                                             unexpected + unexp)
        setups.extend(workload.setup()
                      for _ in range(SETUP_PER_INVOCATION * len(results)))
        if workload.scaled:
            wall = sum(sample.wall for sample, *_ in results)
            refs.extend(run_tool([REF], "ref.exe") for _ in range(
                max(len(results), round(REF_SHARE * wall / REF_S))))
        if trace:
            e2e_wall = sum(s.wall for s, *_ in results)
            layers.append(layer_metrics(workload, e2e_wall, workload.traced()))
    return rounds, setups, refs, layers, attempted, failed, unexpected


def trimmed_total(rounds, num, den):
    """sum(num) / sum(den) over the rounds, without the tenth of rounds
    with the lowest num/den and the tenth with the highest."""
    totals = sorted(((sum(map(num, r)), sum(map(den, r))) for r in rounds),
                    key=lambda t: t[0] / t[1])
    cut = len(totals) // 10
    kept = totals[cut:len(totals) - cut]
    return sum(n for n, _ in kept) / sum(d for _, d in kept)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    build()
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    rounds, setups, refs, layers, attempted, failed, unexpected = measure(
        workload, args.seconds, args.trace)
    samples = [s for r in rounds for s, _ in r]

    refs = [[r] for r in refs]
    slowdown = {
        "wall": trimmed_total(refs, lambda r: r.wall, lambda r: 1) / REF_S,
        "cpu": trimmed_total(refs, lambda r: r.cpu, lambda r: 1) / REF_S,
    } if refs else {"wall": 1.0, "cpu": 1.0}
    unscaled = {
        "points_per_s": trimmed_total(rounds, lambda i: i[1],
                                      lambda i: i[0].wall),
        "cpu_s": trimmed_total(rounds, lambda i: i[0].cpu, lambda i: 1),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
    }
    if args.trace:
        values = {name: statistics.median(l.get(name, 0.0) for l in layers)
                  for name in units if not name.startswith("input.")}
        values.update({f"input.{k}": float(workload.input[k])
                       for k in ("points", "column_share", "duplicate_share")})
    else:
        values = {
            "points_per_s": unscaled["points_per_s"] * slowdown["wall"],
            "cpu_s": unscaled["cpu_s"] / slowdown["cpu"],
            "peak_rss_mb": unscaled["peak_rss_mb"],
            "setup_s": unscaled["setup_s"] / slowdown["wall"],
        }
    if set(values) != set(units):
        raise Failure(f"metrics {sorted(values)} differ from BENCHMARK.json")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": {"commit": commit(), "source_sha256": source_digest(),
                       "nproc": len(os.sched_getaffinity(0)),
                       "ocaml_version": workload.input["ocaml_version"]},
        "rounds": len(rounds), "invocations": len(samples),
        "setup_invocations": len(setups),
        "failed_frac": ratio(failed, attempted),
        "input": {k: workload.input[k]
                  for k in ("points", "columns", "column_share",
                            "duplicate_share")},
        "metrics": values,
        "unscaled": unscaled,
        "ref_slowdown": slowdown if refs else None,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except (Failure, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
