#!/usr/bin/env python3
"""Bench-regression gate for CI.

Compares the quick-mode bench artifacts in the working directory
(BENCH_sim.json, BENCH_inference.json, ...) against the committed
reference floors in BENCH_baseline.json and exits non-zero when any
tracked metric drops below threshold_ratio * reference.

Usage:
    python3 scripts/check_bench_regression.py [BENCH_baseline.json]

Baseline format:
    {
      "mode": "quick" | "full",
      "threshold_ratio": 0.75,
      "benches": {
        "<bench artifact>.json": {
          "dotted.metric.path": <reference>,
          "dotted.count.path": {"max": <ceiling>},
          ...
        }
      }
    }

Metric paths are dot-separated keys into the bench JSON ("batch_wps.32"
reads obj["batch_wps"]["32"]). A plain numeric reference is a
higher-is-better throughput floored at threshold_ratio * reference; a
{"max": N} entry is a lower-is-better count with a HARD ceiling of N
(no derating — e.g. blind_spots, where a regression that reopens
detector blind spots must fail CI outright).

A baseline key that does not resolve to a number in the measured JSON is
itself a gate failure with a message naming where the path broke — a
typo'd key (on either side) must never silently skip a gate.

"mode" names the bench mode the references were measured in. When it is
set, every gated artifact must carry a boolean "quick" flag agreeing with
it; an artifact from the other mode (or without the flag) fails the gate,
and its numbers are not compared, since quick and full runs measure
different workloads. Both committed baselines declare their mode.
"""
import json
import sys


def resolve(obj, dotted_path):
    """Walk a dot-separated key path into nested dicts.

    Returns (value, None) on success or (None, error_message) naming the
    first key that failed to resolve and the keys available at that
    point, so a baseline/artifact key mismatch is diagnosable at a
    glance instead of silently skipping the gate.
    """
    cur = obj
    seen = []
    for key in dotted_path.split("."):
        if not isinstance(cur, dict):
            return None, (f"'{'.'.join(seen)}' is not an object, cannot descend "
                          f"into '{key}'")
        if key not in cur:
            where = f"under '{'.'.join(seen)}'" if seen else "at top level"
            available = ", ".join(sorted(cur.keys())) or "<none>"
            return None, (f"key '{key}' not found {where} "
                          f"(available: {available})")
        seen.append(key)
        cur = cur[key]
    return cur, None


def check(baseline, artifacts):
    """Evaluate every tracked metric.

    `artifacts` maps bench file name -> parsed JSON (or None when the
    file was unreadable). Returns (rows, failures); rows are
    (bench_file, path, kind, bound, value, ok) tuples for the report and
    failures are human-readable messages. Pure function of its inputs —
    the unit tests drive it directly.
    """
    threshold = float(baseline.get("threshold_ratio", 0.75))
    failures = []
    rows = []
    mode = baseline.get("mode")
    if mode not in (None, "quick", "full"):
        failures.append(f"baseline mode is {mode!r}, expected 'quick' or 'full'")

    for bench_file, metrics in baseline["benches"].items():
        current = artifacts.get(bench_file)
        if current is None:
            failures.append(f"{bench_file}: artifact missing (bench did not run?)")
            continue
        quick = current.get("quick")
        same_mode = mode is None or (isinstance(quick, bool)
                                     and mode == ("quick" if quick else "full"))
        if not same_mode:
            artifact_mode = ("quick" if quick else "full") if isinstance(quick, bool) \
                else "unknown (no boolean 'quick' flag)"
            failures.append(f"{bench_file}: artifact mode is {artifact_mode}, baseline "
                            f"mode is {mode} — refusing to compare across modes")
        for path, reference in metrics.items():
            value, err = resolve(current, path)
            if err is not None:
                failures.append(f"{bench_file}:{path}: {err} — a typo'd baseline "
                                "key must not silently skip a gate")
                continue
            # bool is an int subclass; a true/false here is a schema bug,
            # not a measurement.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                failures.append(f"{bench_file}:{path}: resolved to "
                                f"{type(value).__name__}, expected a number")
                continue
            if not same_mode:
                continue  # keys still resolve; numbers from another mode are not compared
            if isinstance(reference, dict):
                if "max" not in reference:
                    failures.append(f"{bench_file}:{path}: baseline entry "
                                    f"{reference!r} has no 'max' key (only "
                                    "{\"max\": N} dict entries are supported)")
                    continue
                # Lower-is-better count with a hard ceiling, no derating.
                ceiling = float(reference["max"])
                ok = value <= ceiling
                rows.append((bench_file, path, "max", ceiling, float(value), ok))
                if not ok:
                    failures.append(
                        f"{bench_file}:{path}: {value:.0f} > ceiling {ceiling:.0f}"
                    )
                continue
            floor = threshold * float(reference)
            ok = value >= floor
            rows.append((bench_file, path, "min", floor, float(value), ok))
            if not ok:
                failures.append(
                    f"{bench_file}:{path}: {value:.1f} < floor {floor:.1f} "
                    f"({threshold:.0%} of reference {reference:.1f})"
                )
    return rows, failures


def main():
    baseline_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_baseline.json"
    with open(baseline_path) as f:
        baseline = json.load(f)

    artifacts = {}
    for bench_file in baseline["benches"]:
        try:
            with open(bench_file) as f:
                artifacts[bench_file] = json.load(f)
        except FileNotFoundError:
            artifacts[bench_file] = None

    threshold = float(baseline.get("threshold_ratio", 0.75))
    rows, failures = check(baseline, artifacts)

    name_w = max((len(f"{b}:{p}") for b, p, *_ in rows), default=20)
    print(f"bench-regression gate ({baseline.get('mode')} mode; floor = "
          f"{threshold:.0%} of reference; 'max' entries are hard ceilings)")
    for bench_file, path, kind, bound, value, ok in rows:
        name = f"{bench_file}:{path}"
        verdict = "ok" if ok else "REGRESSION"
        bound_label = "ceil " if kind == "max" else "floor"
        print(f"  {name:<{name_w}}  {bound_label} {bound:>12.1f}  "
              f"got {value:>12.1f}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} bench gate failure(s):", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"\nPASS: {len(rows)} metric(s) at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
