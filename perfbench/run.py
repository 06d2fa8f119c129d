#!/usr/bin/env python3
"""Benchmark of the DDA pipeline: build, run one workload, check, report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload slope-static --seed 7 --seconds 20 --trace 0

The script builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs the gdda_perfbench harness for one workload, turns its raw samples into
metrics, checks the outputs, and prints a report. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("slope-static", "rocks-gpu")
MODULES = ("contact", "diag", "nondiag", "solve", "interpen", "update")
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=2)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True, stdout=2)


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; steal is time the
    hypervisor ran something else while this machine's CPUs wanted to run."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def median(v):
    return statistics.median(v) if v else 0.0


def p90(v):
    if len(v) < 2:
        return v[0] if v else 0.0
    return statistics.quantiles(v, n=10, method="inclusive")[8]


def mean(v):
    return sum(v) / len(v) if v else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def step_failed(s, tol):
    """Hard failure: the committed state is not physical."""
    return (not s["finite"]) or s["audit_depth"] > tol


def step_degraded(s, tol):
    """Counted in failed_step_frac: dt_min last resort, an unconverged
    solve, or a hard failure."""
    return (not s["converged"]) or s["pcg_failed_solves"] > 0 or step_failed(s, tol)


def fastest_repetitions(eps):
    """{(scene seed, step index): the fastest repetition of that step}.

    Every episode of one scene runs the same deterministic steps (the
    determinism check holds them to one fingerprint), so the fastest
    repetition is the step's cost with the least interference from outside
    the process."""
    best = {}
    for e in eps:
        for k, s in enumerate(e["steps"]):
            key = (e["scene_seed"], k)
            if key not in best or s["wall_s"] < best[key]["wall_s"]:
                best[key] = s
    return best


def analyse(raw):
    """Metrics and checks from the harness's raw samples."""
    eps = raw["episodes"]
    steps = [s for e in eps for s in e["steps"]]
    warm = [s for e in eps for s in e["steps"][1:]]
    untraced = [e for e in eps if not e["traced"]]
    traced_warm = [s for e in eps if e["traced"] for s in e["steps"][1:]]
    failed = sum(step_failed(s, e["pen_tol"]) for e in eps for s in e["steps"])
    degraded = sum(step_degraded(s, e["pen_tol"]) for e in eps for s in e["steps"])
    # End-to-end timings come from untraced episodes, fastest repetition per step.
    best = fastest_repetitions(untraced)
    walls_ms = [1e3 * s["wall_s"] for (_, k), s in best.items() if k > 0]
    e2e = {
        "setup_s": median(raw["setup_s"]),
        "first_step_s": median([s["wall_s"] for (_, k), s in best.items() if k == 0]),
        "step_ms_p50": median(walls_ms),
        "step_ms_p90": p90(walls_ms),
        "sim_s_per_wall_s": ratio(sum(s["dt"] for s in best.values()),
                                  sum(s["wall_s"] for s in best.values())),
        "cpu_s_per_step": mean([s["user_s"] + s["sys_s"] for s in steps]),
        "peak_rss_mb": raw["process"]["vmhwm_kib"] / 1024.0,
        "ok_step_frac": 1.0 - degraded / len(steps),
    }
    counts = {
        "episodes": len(eps),
        "steps": len(steps),
        "untraced_repetitions_per_scene": min(
            sum(e["scene_seed"] == x for e in untraced) for x in {e["scene_seed"] for e in eps}),
        "warm_steps_timed": len(walls_ms),
        "beyond_p90": sum(w > e2e["step_ms_p90"] for w in walls_ms),
        "setups": len(raw["setup_s"]),
        "first_steps": sum(k == 0 for _, k in best),
    }

    contacts_per_block = mean([s["contacts"] / e["blocks"] for e in eps for s in e["steps"][1:]])
    active_frac = ratio(sum(s["active_contacts"] for s in warm),
                        sum(s["contacts"] for s in warm))
    checks = {}
    checks["finite state"] = (all(s["finite"] for s in steps), "every committed step")
    worst = max(eps, key=lambda e: e["audit_depth"] / e["pen_tol"])
    checks["penetration"] = (
        all(e["audit_depth"] <= e["pen_tol"] for e in eps),
        f"deepest audited {worst['audit_depth']:.3g} m <= tolerance {worst['pen_tol']:.3g} m")
    by_scene = defaultdict(list)
    for e in eps:
        by_scene[e["scene_seed"]].append(e["fingerprint"])
    for scene, prints in sorted(by_scene.items()):
        checks[f"determinism: scene seed {scene}"] = (
            len(prints) >= 2 and len(set(prints)) == 1,
            f"{len(prints)} episodes, fingerprint(s) {', '.join(sorted(set(prints)))}")
    if raw["trace"] and raw.get("restore_match") is not None:
        checks["snapshot resume"] = (raw["restore_match"] is True,
                                     "restored mid-run snapshot reaches the same fingerprint")
    band = raw["regime"]
    lo, hi = band["contacts_per_block"]
    checks["regime: contacts/block"] = (lo <= contacts_per_block <= hi,
                                        f"{contacts_per_block:.2f} in [{lo:g}, {hi:g}]")
    lo, hi = band["active_frac"]
    checks["regime: active_frac"] = (lo <= active_frac <= hi,
                                     f"{active_frac:.4g} in [{lo:g}, {hi:g}]")
    if band["first_step_retries"]:
        r = [e["steps"][0]["retries"] for e in eps]
        checks["regime: first step retries"] = (all(x > 0 for x in r), f"retries {r}")

    layer = {}
    if raw["trace"]:
        layer.update(raw["layers"])
        k40 = {m: sum(e["k40_ms"][m] for e in eps) / len(steps) for m in MODULES}
        gpu = raw["mode"] == "gpu"
        ws_warm = sum(e["workspace_warm"] for e in eps)
        ws_cold = sum(e["workspace_cold"] for e in eps)
        reuses = sum(e["pair_cache_reuses"] for e in eps)
        rebuilds = sum(e["pair_cache_rebuilds"] for e in eps)
        step_ms = median([1e3 * s["wall_s"] for s in traced_warm])
        warm_wall = sum(s["wall_s"] for s in warm)
        layer.update({
            "contact.contacts_per_block": contacts_per_block,
            "contact.active_frac": active_frac,
            "contact.pair_cache_reuse_frac": ratio(reuses, reuses + rebuilds),
            "assembly.warm_frac": ratio(ws_warm, ws_warm + ws_cold),
            "solver.pcg_iters_per_step": mean([s["pcg_iterations"] for s in warm]),
            "solver.unconverged_solves": sum(s["pcg_failed_solves"] for s in steps) / len(eps),
            "par.team_width": raw["team"],
            "par.parallel_frac": ratio(sum(s["parallel_s"] for s in warm), warm_wall),
            "par.cpu_per_wall": ratio(sum(s["user_s"] + s["sys_s"] for s in warm), warm_wall),
            "core.step_ms": step_ms,
            "core.retries_per_step": mean([s["retries"] for s in steps]),
            "core.last_resort_steps": sum(not s["converged"] for s in steps) / len(eps),
            "core.open_close_passes_per_step": mean([s["passes"] for s in warm]),
            "core.sys_s_per_step": mean([s["sys_s"] for s in steps]),
            "core.minor_faults_per_step": mean([s["minor_faults"] for s in steps]),
            "core.module_coverage_frac": ratio(
                sum(sum(s["module_s"].values()) for s in warm), warm_wall),
            "failed_step_frac": degraded / len(steps),
            "modeled_k40_ms_per_step": sum(k40.values()) if gpu else 0.0,
            "trace_overhead_frac": ratio(step_ms, median(
                [1e3 * s["wall_s"] for e in untraced for s in e["steps"][1:]])) - 1.0,
        })
        for m in MODULES:
            layer[f"core.module_s.{m}"] = mean([s["module_s"][m] for s in warm])
        for m in ("contact", "nondiag", "solve"):
            layer[f"simt.k40_ms.{m}"] = k40[m] if gpu else 0.0
        na = dict(raw["not_applicable"])
        if not gpu:
            why = "no SIMT ledgers: the Serial engine records none"
            for name in ["modeled_k40_ms_per_step"] + [f"simt.k40_ms.{m}" for m in
                                                        ("contact", "nondiag", "solve")]:
                na[name] = why
        raw["not_applicable"] = na
    return e2e, layer, checks, counts, failed


def span_table(spans):
    """Per span name: count, total and self time (duration minus the time
    covered by child spans; children of one span never overlap)."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        dur = s["end_us"] - s["start_us"]
        r = rows[s["name"]]
        r[0] += 1
        r[1] += dur / 1e3
        r[2] += (dur - child[i]) / 1e3
    return {k: {"count": v[0], "total_ms": v[1], "self_ms": v[2]} for k, v in rows.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="generator seed (default: the generator's own default)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        fail(f"set-up failed: {e}")

    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else "default"
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    raw_path = runs / f"{tag}.json"
    cmd = [str(BUILD / "gdda_perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    t0 = time.monotonic()
    steal0, total0 = cpu_ticks()
    try:
        subprocess.run(cmd, check=True, stdout=2, timeout=HARNESS_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        fail(f"harness exited with {e.returncode}")
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    harness_s = time.monotonic() - t0
    steal1, total1 = cpu_ticks()
    raw = json.loads(raw_path.read_text())

    e2e, layer, checks, counts, failed = analyse(raw)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = all(ok for ok, _ in checks.values())

    proc = raw["process"]
    stamp = {
        "git_sha": git_sha(), "source_sha256": source_digest(), "build_type": build_type(),
        "nproc": raw["cpus"], "team_width": raw["team"], "workload": raw["workload"],
        "seed": raw["seed"],
        "scene_seeds": ",".join(str(x) for x in sorted({e["scene_seed"] for e in raw["episodes"]})),
        "trace": args.trace, "vmhwm_kib": proc["vmhwm_kib"],
        "user_s": proc["user_s"], "sys_s": proc["sys_s"],
        "minor_faults": proc["minor_faults"], "major_faults": proc["major_faults"],
        "harness_wall_s": harness_s,
        "cpu_steal_frac": ratio(steal1 - steal0, total1 - total0), "samples": counts,
    }
    print(f"perfbench {raw['workload']} seed {raw['seed']} trace {args.trace}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items() if k != "samples"))
    print("samples: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print("end-to-end (untraced episodes, fastest repetition of each step):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<20} {e2e[m['name']]:.6g} {m['unit']}")
    spans = None
    if args.trace:
        print("per-layer:")
        na = raw["not_applicable"]
        for m in spec["per_layer"]:
            note = f"  (n/a: {na[m['name']]})" if m["name"] in na else ""
            print(f"  {m['name']:<36} {layer[m['name']]:.6g} {m['unit']}{note}")
        spans = span_table(raw["spans"])
        print("span self time (ms): name count total self")
        for name, r in sorted(spans.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:<40} {r['count']:>5} {r['total_ms']:>10.3f} {r['self_ms']:>10.3f}")
    print("checks:")
    for name, (ok, detail) in checks.items():
        print(f"  {'OK  ' if ok else 'FAIL'} {name}: {detail}")

    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{tag}.json").write_text(json.dumps({
        "stamp": stamp, "end_to_end": e2e, "per_layer": layer,
        "not_applicable": raw.get("not_applicable", {}), "spans": spans,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in checks.items()},
    }, indent=1))
    print(json.dumps({"correct": correct, "attempted": counts["steps"], "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
