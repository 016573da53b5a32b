#!/usr/bin/env python3
"""Defense-loop benchmark runner.

One run (the form the benchmark is invoked in):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

builds perfbench_suite from this checkout (first run only), trains the
model recipes (first run after each build), runs one workload and prints
its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is non-zero on any failed check.

A suite of runs, every workload in alternating order, seeds N..N+R-1:

    python3 perfbench/run.py --out DIR [--workloads a,b] [--seed N] [--repeats R]
                             [--seconds S] [--trace]

Comparing two suites (for example parent and change, same seeds):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Build output goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the checkout root); nothing else is written
outside --out.
"""
import argparse
import fcntl
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STAMP_KEYS = ("mode", "nproc", "build_type", "gemm_backend")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- the spec

def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def check_spec(spec):
    """Problems with a BENCHMARK.json document (empty list when valid)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return problems
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1 to 128 per-layer metrics")
    run_seconds = spec["run_seconds"]
    if not isinstance(run_seconds, int) or not 1 <= run_seconds <= 60:
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
        elif "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w['name']}: why must be one line of at most 200 characters")
        names.append(w.get("name", ""))
    for group, keys_ in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys_:
                problems.append(f"{group} metric {m.get('name')}: keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                problems.append(f"metric {m['name']}: better must be higher or lower")
            if group == "end_to_end" and not (
                    isinstance(m["bound"], (int, float)) and 0 <= m["bound"] <= 0.25):
                problems.append(f"metric {m['name']}: bound must be in [0, 0.25]")
    for n in names:
        if not NAME_RE.match(n):
            problems.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s (unit s, lower is better) is required")
    elif setup[0]["bound"] < max(m.get("bound", 0) for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems


def declared(spec, trace):
    """{metric name: unit} a run with --trace `trace` must report."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------- building

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout, check=True)


def ensure_built(smoke=False):
    """Build the suite (a no-op when up to date) and train its models when
    missing or trained by another build of the suite.

    Returns (suite binary, models directory). Serialized by a lock file so
    concurrent runs in one checkout never build over each other.
    """
    build = build_dir()
    build.mkdir(parents=True, exist_ok=True)
    with open(build / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", str(build), "--target", "perfbench_suite",
                    "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
        suite = build / "perfbench_suite"
        models = build / ("models-smoke" if smoke else "models")
        digest = hashlib.sha256(suite.read_bytes()).hexdigest()
        stamp = models / "suite.sha256"
        if not stamp.exists() or stamp.read_text() != digest:
            cmd = [str(suite), "--prepare", "--models", str(models)]
            run_logged(cmd + (["--smoke"] if smoke else []), BUILD_TIMEOUT_S)
            stamp.write_text(digest)
    return suite, models


# ---------------------------------------------------------------- one run

def run_one(suite, models, spec, workload, seed, seconds, trace, out=None, smoke=False):
    """Run one workload; returns (result, stamp, notes). Raises on failure."""
    cmd = [str(suite), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--models", str(models)]
    if out is not None:
        cmd += ["--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    stamp, notes = {}, []
    for line in lines[:-1]:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
        elif line.startswith("# "):
            notes.append(line[2:])
    problems = check_result(result, declared(spec, trace))
    if problems:
        raise RuntimeError(f"{workload}: " + "; ".join(problems))
    return result, stamp, notes


def check_result(result, want):
    """Problems with one run's result line against the declared metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"undeclared metrics {extra}")
    problems += [f"{k}: unit {got[k]!r} != {u!r}" for k, u in want.items()
                 if k in got and got[k] != u]
    return problems


# ---------------------------------------------------------------- statistics

def summarize(values):
    """Median, first and third quartile (statistics.quantiles), n."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values):
    """Interquartile range as a share of the median."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(parent, change, better, bound):
    """Judge one metric on one workload from paired runs (same seeds).

    regressed: the change's median is worse than the parent's by more than
    the bound. unresolved: the parent's own spread exceeds the bound and
    not every change run beats every parent run. improved: the change wins
    at least nine tenths of the pairs (ties count for neither) and the
    medians differ by more than the parent's interquartile range.
    """
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    worse = sign * (mp - mc) / abs(mp) if mp else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    s = summarize(parent)
    if wins >= 0.9 * min(len(parent), len(change)) and abs(mc - mp) > s["q3"] - s["q1"]:
        return "improved"
    return "unchanged"


# ---------------------------------------------------------------- suites

def run_suite(args, spec):
    suite, models = ensure_built(args.smoke)
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec["run_seconds"]
    runs, failed = [], False
    for r in range(args.repeats):
        order = chosen if r % 2 == 0 else chosen[::-1]
        for name in order:
            seed = args.seed + r
            try:
                result, stamp, notes = run_one(suite, models, spec, name, seed, seconds,
                                               args.trace, out, args.smoke)
            except (RuntimeError, subprocess.SubprocessError) as e:
                log(f"FAIL {e}")
                failed = True
                continue
            failed |= not result["correct"] or result["failed"] != 0
            log(f"{name} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}")
            runs.append({"workload": name, "seed": seed, "trace": int(args.trace),
                         "stamp": stamp, "notes": notes, "result": result})
            (out / f"{name}-seed{seed}-trace{int(args.trace)}.json").write_text(
                json.dumps(runs[-1], indent=1))
    summary = {"stamp": runs[0]["stamp"] if runs else {}, "trace": int(args.trace),
               "workloads": {}}
    for name in chosen:
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        metrics = {}
        for metric, unit in declared(spec, args.trace).items():
            values = [r["result"]["metrics"][metric]["value"] for r in mine]
            metrics[metric] = dict(summarize(values), unit=unit, values=values,
                                   seeds=[r["seed"] for r in mine])
        summary["workloads"][name] = metrics
        print(f"\n{name}")
        print(f"  {'metric':36s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
        for metric, s in metrics.items():
            print(f"  {metric:36s} {s['unit']:8s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g}  {s['n']}")
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    return 1 if failed or len(runs) < len(chosen) * args.repeats else 0


def compare(parent_dir, change_dir, spec):
    parent = json.loads((Path(parent_dir) / "summary.json").read_text())
    change = json.loads((Path(change_dir) / "summary.json").read_text())
    for key in STAMP_KEYS:
        if parent["stamp"].get(key) != change["stamp"].get(key):
            raise SystemExit(f"refusing to compare: {key} differs "
                             f"({parent['stamp'].get(key)} vs {change['stamp'].get(key)})")
    if parent["trace"] != 0 or change["trace"] != 0:
        raise SystemExit("compare needs suites run without --trace")
    status = 0
    for name, pm in parent["workloads"].items():
        cm = change["workloads"].get(name)
        if cm is None:
            print(f"{name}: missing from {change_dir}")
            status = 1
            continue
        cells = []
        for m in spec["end_to_end"]:
            p, c = pm[m["name"]], cm[m["name"]]
            if p["seeds"] != c["seeds"]:
                raise SystemExit(f"refusing to compare {name}: different seeds")
            v = verdict(p["values"], c["values"], m["better"], m["bound"])
            delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
            cells.append(f"{m['name']}={v}({delta:+.1%})")
            status |= v == "regressed"
        print(f"{name}: " + " ".join(cells))
    return status


# ---------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload and print its result line")
    ap.add_argument("--workloads", help="comma-separated subset for a suite")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="directory for results and traces")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--smoke", action="store_true", help="tiny training and windows (tests)")
    args = ap.parse_args(argv)

    spec = load_spec()
    problems = check_spec(spec)
    if problems:
        log("BENCHMARK.json: " + "; ".join(problems))
        return 1
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        if args.out is None:
            ap.error("need --workload, --out or --compare")
        return run_suite(args, spec)

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 1
    try:
        suite, models = ensure_built(args.smoke)
        result, stamp, notes = run_one(suite, models, spec, args.workload, args.seed,
                                       args.seconds or spec["run_seconds"], args.trace,
                                       args.out, args.smoke)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    for note in notes:
        print(f"# {note}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
