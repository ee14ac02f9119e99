"""Benchmark of noncong: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src/``.
One generator process (this one, no threads) starts every command in a fresh
child interpreter (``child.py``), one at a time, and checks every output
exactly: published rows against ``golden/``, the rest against
``perfbench/expected/`` (see ``certify.py``).

A run repeats the workload's pass until ``--seconds`` have elapsed.  With
``--trace 0`` it reports, as medians over the passes, ``wall_s`` (the
children's wall times plus the output checks: the time to a verified result)
and ``peak_rss_mib`` (largest ru_maxrss among the pass's children), and
``setup_s``, the median over all the run's children of the time from spawn
to the end of ``import noncong, noncong.cli``.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (``tracer.py``) plus the tracing overhead, the median over
adjacent untraced/traced pairs of traced minus untraced wall time.

The speed of a shared host drifts by up to a fifth over minutes, which
would swamp the comparison of two commits.  So after every child the
generator runs a fixed reference loop (``reference_loops``, no program code)
for a fifth of the child's wall time, and ``wall_s``, ``setup_s`` and the
overhead are corrected for the host's speed: multiplied by the square root
(``REF_WEIGHT``) of ``REF_NOMINAL_S`` over the mean reference loop time of
the run, because the program's times move about half as much as the loop's
when the host's speed drifts.  The unscaled pass times go into the record
line.

The seed fixes the order of the aswd-deep commands and of the ap-scan
primes, and picks the rows the scalar trace oracle recomputes after timing.
The last line of stdout is the JSON result; the line before it records the
machine, versions and load.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import expected as exp
from child import MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "golden"
OUT_DIR = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0      # every run must end within 180 s
REF_NOMINAL_S = 0.02     # reference loop time at the speed times are reported at
REF_SHARE = 0.2          # reference time after each child, share of its wall time
REF_WEIGHT = 0.5         # the program's times move about half as much as the loop's

TRACE_PRIMES = "5..23,73,101"
ASWD_PMAX, ASWD_PN_BOUND = 97, 1000
APSCAN_PMAX = 1000


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def diff_rows(got: dict, repeats: int, want: dict) -> tuple[int, int]:
    """(attempted, failed): one check per wanted row, one per extra or
    repeated row."""
    extra = len(set(got) - set(want)) + repeats
    wrong = sum(got.get(key) != value for key, value in want.items())
    return len(want) + extra, wrong + extra


def reference_loops(seconds: float) -> list[float]:
    """Times of a fixed pure-Python big-integer loop, the kind of work the
    program does, repeated for ``seconds`` (at least once): samples of the
    host's current speed."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        x, s = 7 ** 2400, 0
        for i in range(1, 6000):
            s = (s + x * i) % (x + i)
        times.append(time.perf_counter() - t0)
    return times


def parsed(parse, text: str) -> tuple[dict, int]:
    try:
        return parse(text)
    except ValueError:          # malformed output: every wanted row fails
        return {}, 1


# ---------------------------------------------------------------------------
# workloads: the commands of one pass, and the checks of their outputs


class TracesTable:
    """The published 12 x 8 trace table plus its 12 rows at p = 101, one CLI
    process.  The F_{p^2} fiber-trace tables dominate."""

    def __init__(self):
        self.want = exp.golden_traces(GOLDEN)
        self.want.update(exp.parse_trace_csv(exp.load("traces_p101.csv"))[0])

    def commands(self, rng):
        return [["cli", "--format", "csv", "traces", "--all", "--primes", TRACE_PRIMES]]

    def check(self, outputs):
        return diff_rows(*parsed(exp.parse_trace_csv, outputs[0]), self.want)

    def oracle_sample(self, rng, outputs):
        rows = parsed(exp.parse_trace_csv, outputs[0])[0]
        at_101 = sorted(k for k in self.want if k[2] == 101)
        small = sorted(k for k in self.want if k[2] <= 23)
        picks = [(rng.choice(at_101), False), (rng.choice(small), True)]
        return [(g, label, p, sq, rows.get((g, label, p), (None, None))[sq])
                for (g, label, p), sq in picks]


class AswdDeep:
    """Nine cold `aswd` processes, one per group, at p <= 97 and pn <= 1000.
    The exact cube roots of the basis series dominate."""

    def __init__(self):
        names = [f.name[len("aswd_"):-len(".txt")]
                 for f in sorted(exp.EXPECTED.glob("aswd_*.txt"))]
        self.groups = {}
        for name in names:
            want = exp.parse_aswd(exp.load(f"aswd_{name}.txt"))[0]
            group = next(iter(want))[0]
            self.groups[group] = (name, want,
                                  exp.golden_ratios(GOLDEN / f"ratios_{name}.csv"))

    def commands(self, rng):
        order = sorted(self.groups)
        rng.shuffle(order)
        return [["cli", "aswd", g, "--pmax", str(ASWD_PMAX),
                 "--pn-bound", str(ASWD_PN_BOUND),
                 "--golden", f"golden/ratios_{self.groups[g][0]}.csv"] for g in order]

    def check(self, outputs):
        attempted = failed = 0
        got = {}
        for text in outputs:
            rows, repeats = parsed(exp.parse_aswd, text)
            failed += repeats
            attempted += repeats
            got.update(rows)
        want = {k: v for _, rows, _ in self.groups.values() for k, v in rows.items()}
        a, f = diff_rows(got, 0, want)
        attempted, failed = attempted + a, failed + f
        for group, (_, _, ratios) in self.groups.items():
            attempted += len(ratios)
            failed += len(exp.diff_ratios(group, got, ratios))
        return attempted, failed

    def oracle_sample(self, rng, outputs):
        return []


class ApScan:
    """One library process: F_p traces of the twelve families and A_p of L48
    and L432 for every prime 5 <= p <= 1000.  Many small F_p tables."""

    def __init__(self):
        self.want = exp.parse_apscan(exp.load("ap_scan.csv"))[0]
        self.golden = exp.golden_newform_values(GOLDEN)
        self.primes = primes_between(5, APSCAN_PMAX)

    def commands(self, rng):
        order = list(self.primes)
        rng.shuffle(order)
        return [["apscan", ",".join(map(str, order))]]

    def check(self, outputs):
        got, repeats = parsed(exp.parse_apscan, outputs[0])
        a, f = diff_rows(got, repeats, self.want)
        a2, f2 = diff_rows({k: got.get(k) for k in self.golden}, 0, self.golden)
        return a + a2, f + f2

    def oracle_sample(self, rng, outputs):
        rows = parsed(exp.parse_apscan, outputs[0])[0]
        keys = rng.sample(sorted(k for k in self.want if k[0] == "tr"), 2)
        return [(g, label, p, False, int(rows[k]) if k in rows else None)
                for k, (_, g, label, p) in zip(keys, keys)]


WORKLOADS = {"traces-table": TracesTable, "aswd-deep": AswdDeep, "ap-scan": ApScan}


# ---------------------------------------------------------------------------
# children


def run_child(args, traced: bool, run_id: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "1" if traced else "0", run_id, *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    record = None
    for line in err.decode(errors="replace").splitlines():
        if not line.startswith(MARK):
            print(f"[{run_id}] {line}", file=sys.stderr)
            continue
        try:
            record = json.loads(line[len(MARK):])
        except ValueError:      # a cut-off record counts as a failed command
            record = None
    return {"label": " ".join(args)[:48], "stdout": out.decode(errors="replace"),
            "rc": proc.returncode, "wall_s": time.monotonic() - spawned,
            "setup_s": record["imported_at"] - spawned if record else None,
            "record": record}


def run_pass(workload, rng, traced: bool, run_id: str, deadline: float) -> dict:
    """Run the pass's commands one by one, each followed by reference loops
    for a fifth of its wall time, and check the outputs."""
    refs, children = [], []
    for i, args in enumerate(workload.commands(rng)):
        children.append(run_child(args, traced, f"{run_id}:{i}", deadline))
        refs += reference_loops(REF_SHARE * children[-1]["wall_s"])
    start = time.monotonic()
    outputs = [c["stdout"] for c in children]
    attempted, failed = workload.check(outputs)
    check_s = time.monotonic() - start
    bad_exit = sum(c["rc"] != 0 or c["record"] is None for c in children)
    records = [c["record"] for c in children if c["record"]]
    return {"wall_s": check_s + sum(c["wall_s"] for c in children),
            "traced": traced, "outputs": outputs, "refs": refs,
            "child_walls": [(c["label"], round(c["wall_s"], 4)) for c in children],
            "setup_times": [c["setup_s"] for c in children if c["setup_s"] is not None],
            "attempted": attempted + len(children), "failed": failed + bad_exit,
            "peak_rss_mib": max((r["maxrss_kib"] for r in records), default=0) / 1024,
            "traces": [r["trace"] for r in records if r["trace"]]}


def oracle_checks(samples) -> tuple[int, int]:
    """Recompute sampled traces through the scalar local-trace oracle."""
    if not samples:
        return 0, 0
    sys.path.insert(0, str(ROOT / "src"))
    import noncong
    from noncong import traces
    from certify import families_by_label, oracle_trace
    fams = families_by_label(noncong)
    failed = sum(oracle_trace(traces, fams[(g, label)], p, sq) != value
                 for g, label, p, sq, value in samples)
    return len(samples), failed


# ---------------------------------------------------------------------------
# the run


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy                # after timing: the children import their own
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": os.getloadavg(), "commit": commit}


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="noncong benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "noncong" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no noncong checkout at {ROOT} (src/noncong and golden/ needed)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload]()
    env_before = os.getloadavg()

    attempted = failed = 0
    passes = []
    measure_start = time.monotonic()
    while True:
        is_traced = bool(args.trace) and len(passes) % 2 == 1
        run_id = f"{args.workload}:{args.seed}:{len(passes)}"
        passes.append(run_pass(workload, rng, is_traced, run_id, deadline))
        done = time.monotonic() - measure_start >= args.seconds
        if args.trace and len(passes) < 2:
            done = False
        if done or time.monotonic() + passes[-1]["wall_s"] > deadline:
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    for p in passes:
        attempted += p["attempted"]
        failed += p["failed"]
    a, f = oracle_checks(workload.oracle_sample(rng, plain[-1]["outputs"]))
    attempted, failed = attempted + a, failed + f

    refs = [r for p in passes for r in p["refs"]]
    scale = (REF_NOMINAL_S / statistics.mean(refs)) ** REF_WEIGHT

    absent, layer_self = [], []
    if args.trace:
        import tracer
        layer_self = [tracer.layer_self_times(p["traces"]) for p in traced]
        per_pass = [tracer.layer_metrics(p["traces"]) for p in traced]
        absent = sorted({m for _, missing in per_pass for m in missing})
        values = {name: median([m[name] for m, _ in per_pass if m[name] is not None])
                  for name in tracer.METRIC_SPANS}
        values["trace.overhead_s"] = scale * median([t["wall_s"] - u["wall_s"]
                                                     for u, t in zip(plain, traced)])
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": scale * median([p["wall_s"] for p in plain]),
                  "setup_s": scale * median([t for p in plain for t in p["setup_times"]]),
                  "peak_rss_mib": median([p["peak_rss_mib"] for p in plain])}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, loadavg_before=env_before, absent=absent,
               pass_walls=[round(p["wall_s"], 4) for p in plain],
               reference_loops=len(refs), reference_mean_s=statistics.mean(refs),
               pass_reference_means=[round(statistics.mean(p["refs"]), 6) for p in passes],
               child_walls=[p["child_walls"] for p in passes],
               traced_walls=[round(p["wall_s"], 4) for p in traced],
               setup_times=[[round(t, 4) for t in p["setup_times"]] for p in plain],
               run_s=round(time.monotonic() - started, 2))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "layer_self_s": layer_self,
                   "traces": [p["traces"] for p in traced]}, fh)
    print("perfbench-env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
