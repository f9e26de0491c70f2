"""chebpot benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``cli_cold``, ``sweep_remez``,
``levelset_potential``.  Each run starts a fresh workload process that sets
up, runs ops one after another for S seconds (one closed-loop client) and
checks every op's output afterwards.  Set-up is repeated in further fresh
processes and the median reported; an untimed capability process measures
the reach ladders.  The program runs from ``src/`` of the checkout with
BLAS pinned to one thread.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the timed phase is split into an untraced and a traced half
and the result holds the per-layer metrics (self time, calls and cache hit
ratios per module function, import and CLI breakdowns, tracing overhead).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything else the run
writes stays under ``.perfbench_work/<workload>/`` in the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from common import BLAS_VARS, HERE, LAYERS, PYTHON, ROOT, child_env, spawn_wait

WORKLOADS = ("cli_cold", "sweep_remez", "levelset_potential")
SETUP_RUNS = 3  # fresh processes whose set-up times give the median setup_s
IMPORT_RUNS = 3

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "reach_n": "degree",
    "reach_p": "bands",
}


class ChildFailed(RuntimeError):
    pass


def run_child(role, args, work, env):
    out = os.path.join(work, f"{role}-{time.monotonic_ns()}.json")
    argv = [
        PYTHON, os.path.join(HERE, "child.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--out", out, "--spawn-time", repr(time.monotonic()),
    ]
    code, wall, rss = spawn_wait(argv, env, out + ".stderr")
    if code != 0:
        with open(out + ".stderr", errors="replace") as fh:
            raise ChildFailed(f"{role} process exited with {code}:\n{fh.read()[-4000:]}")
    with open(out) as fh:
        return json.load(fh), rss


def percentile(sorted_vals, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples above it (>= 50)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n else 50


def import_breakdown(env, work):
    """Median of IMPORT_RUNS ``python -X importtime -c 'import chebpot'`` runs."""
    rows = {"interpreter": [], "chebpot": [], "numpy": [], "scipy": []}
    for i in range(IMPORT_RUNS):
        err_path = os.path.join(work, f"importtime-{i}.txt")
        code, wall, _ = spawn_wait([PYTHON, "-X", "importtime", "-c", "import chebpot"], env, err_path)
        if code != 0:
            raise ChildFailed("python -X importtime -c 'import chebpot' failed")
        with open(err_path) as fh:
            parsed = parse_importtime(fh.read())
        rows["interpreter"].append(wall - parsed["chebpot"])
        for key in ("chebpot", "numpy", "scipy"):
            rows[key].append(parsed[key])
    return {f"import.{k}_s": statistics.median(v) for k, v in rows.items()}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text):
    """Cumulative seconds of chebpot and of the outermost numpy/scipy imports.

    Lines come in completion order, so a module's importer is the first
    later line with less indentation.
    """
    entries = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    out = {"chebpot": 0.0, "numpy": 0.0, "scipy": 0.0}
    for i, (cum, depth, name) in enumerate(entries):
        top = name.split(".")[0]
        if top not in out:
            continue
        parent = next((e for e in entries[i + 1 :] if e[1] < depth), None)
        if parent is None or parent[2].split(".")[0] != top:
            out[top] += cum
    return out


def e2e_metrics(res, rss, setup_times, cap):
    ops = res["phases"]["timed"]["ops"]
    ok = sorted(dt for _, dt, reason in ops if reason is None)
    q = tail_percentile(len(ok))
    tail = percentile(ok, q) if ok else 0.0
    info = {"tail_percentile": q, "tail_samples": len(ok), "tail_samples_above": sum(v > tail for v in ok)}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(ok) if ok else 0.0,
        "latency_tail_s": tail,
        "ops_per_s": len(ok) / res["phases"]["timed"]["wall_s"],
        "peak_rss_mb": res.get("cli_peak_rss_mb", rss),
        "reach_n": cap["reach_n"],
        "reach_p": cap["reach_p"],
    }
    return metrics, info


def layer_metrics(res, imports, cap):
    """Per-layer metrics of the traced half, normalised per traced op."""
    traced = res["phases"]["traced"]
    plain = res["phases"]["plain"]
    n_ops = max(1, len(traced["ops"]))
    op_time = sum(dt for _, dt, _ in traced["ops"])
    spans = res["trace"]["spans"]
    row = lambda name: spans.get(name, [0, 0.0, 0.0, 0, 0])  # noqa: E731
    m = dict(imports)

    parts = res.get("cli_parts", [])
    for key in ("process", "startup", "import", "runner", "write"):
        m[f"cli.{key}_s"] = statistics.median(p[f"{key}_s"] for p in parts) if parts else 0.0
    m["cli.startup_import_share"] = (
        sum(p["startup_s"] + p["import_s"] for p in parts) / sum(p["process_s"] for p in parts) if parts else 0.0
    )
    m["potential.first_use_s"] = res["first_use_s"]

    for name in ("potential.equilibrium", "potential.green", "potential.harmonic_measure",
                 "potential.green_cross", "potential.harmonic_mass", "potential.conjugate_pair_measure",
                 "potential.szego_integral", "extremal.solve_extremal", "extremal.verify_alternation",
                 "ensets.compute_n0"):
        m[f"{name}.calls"] = row(name)[0] / n_ops
        m[f"{name}.self_s"] = row(name)[2] / n_ops
    for name in ("potential.pair_mass", "ensets.build_rational_frame", "ensets.compute_band_set",
                 "ensets.verify_band_measures", "ensets.verify_cosh_identity", "bounds.sweep",
                 "bounds.szego_dichotomy_report", "bounds.bound_report"):
        m[f"{name}.self_s"] = row(name)[2] / n_ops
    for name in ("equilibrium", "green", "harmonic_measure"):
        hits, misses = res["cache"].get(name, [0, 0])
        m[f"potential.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for kind in ("real", "complex"):
        r = row(f"potential.green_eval_{kind}")
        m[f"potential.green_eval_{kind}.per_1k_s"] = 1000.0 * r[2] / r[4] if r[4] else 0.0
    solve = row("extremal.solve_extremal")
    m["extremal.solve_extremal.fail_ratio"] = solve[3] / solve[0] if solve[0] else 0.0
    top_calls, top_time = res["trace"]["top_level"]["extremal.solve_extremal"]
    m["extremal.per_degree_s"] = top_time / top_calls if top_calls else 0.0
    calls, points = res["trace"]["weights.eval"]
    m["weights.eval.calls"] = calls / n_ops
    m["weights.eval.points"] = points / n_ops
    for layer in LAYERS:
        self_s = sum(r[2] for name, r in spans.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = self_s / op_time if op_time else 0.0
    m["trace.overhead_ratio"] = overhead_ratio(plain["ops"], traced["ops"])
    m["capability.probes_failed"] = sum(1 for _, outcome in cap["probes"] if outcome != "ok")
    return m


def overhead_ratio(plain_ops, traced_ops):
    """Traced time of the traced half over what the same op kinds took
    untraced, minus 1.  Matching by kind keeps the two halves' different
    op mixes (a CLI command, a sweep or a dichotomy op) out of the ratio."""
    mean = {}
    for kind, dt, _ in plain_ops:
        acc = mean.setdefault(kind, [0, 0.0])
        acc[0] += 1
        acc[1] += dt
    traced = untraced = 0.0
    for kind, dt, _ in traced_ops:
        if kind in mean:
            traced += dt
            untraced += mean[kind][1] / mean[kind][0]
    return traced / untraced - 1.0 if untraced else 0.0


def provenance(args, info):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "chebpot")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "client": "closed loop, 1 client, 1 workload process at a time",
        **info,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chebpot", "__init__.py")):
        print(f"error: no chebpot sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()

    try:
        imports = import_breakdown(env, work) if args.trace else {}
        res, rss = run_child("workload", args, work, env)
        setup_times = [res["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_times.append(run_child("setup", args, work, env)[0]["setup_s"])
        cap, _ = run_child("capability", args, work, env)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for phase in res["phases"].values() for op in phase["ops"]]
    failed = [op for op in ops if op[2] is not None]
    reasons = {}
    for kind, _, reason in failed:
        reasons[f"{kind}:{reason}"] = reasons.get(f"{kind}:{reason}", 0) + 1

    if args.trace:
        metrics = layer_metrics(res, imports, cap)
        units = {name: _layer_unit(name) for name in metrics}
        info = {}
    else:
        metrics, info = e2e_metrics(res, rss, setup_times, cap)
        units = E2E_UNITS
    prov = provenance(args, info)
    detail = {
        "provenance": prov,
        "setup_times_s": setup_times,
        "fail_ratio": len(failed) / len(ops),
        "fail_reasons": reasons,
        "ops_by_kind": _by_kind(ops),
        "reach_n_log": cap["reach_n_log"],
        "reach_p_log": cap["reach_p_log"],
        "probes": cap["probes"],
        "enset_pool_wraps": res.get("enset_pool_wraps"),
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    w = args.workload
    print(f"perfbench {w}: provenance {json.dumps(prov, sort_keys=True)}")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{info['tail_percentile']} of {info['tail_samples']} ops, {info['tail_samples_above']} above)"
        print(f"perfbench {w}: {name} = {value:.6g} {units[name]}{note}")
    print(f"perfbench {w}: fail_ratio = {detail['fail_ratio']:.6g} 1  ({len(failed)} of {len(ops)} ops)")
    for key, count in sorted(reasons.items()):
        print(f"perfbench {w}: failed op {key} x{count}")
    for label, outcome in cap["probes"]:
        print(f"perfbench {w}: known-defect probe [{label}] -> {outcome}")
    print(f"perfbench {w}: details in {os.path.relpath(os.path.join(work, 'result.json'), ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _by_kind(ops):
    out = {}
    for kind, dt, reason in ops:
        row = out.setdefault(kind, {"ops": 0, "failed": 0, "seconds": 0.0})
        row["ops"] += 1
        row["failed"] += reason is not None
        row["seconds"] += dt
    return out


def _layer_unit(name):
    if name.endswith(("_share", "_ratio")):
        return "1"
    if name.endswith(".calls") or name.endswith(".points"):
        return "count/op"
    if name.endswith(".per_1k_s"):
        return "s/1k"
    if name.endswith("probes_failed"):
        return "count"
    if name.endswith("_s") and (name.startswith(("import.", "cli.")) or name == "potential.first_use_s"
                                or name == "extremal.per_degree_s"):
        return "s"
    return "s/op"


if __name__ == "__main__":
    sys.exit(main())
