"""One fresh benchmark process: set-up, then a timed phase or a capability phase.

Started by run.py, never by hand.  ``--spawn-time`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so set-up time includes interpreter start-up.  Roles:

* ``workload``: set up, run the timed phase, check every op, write records.
* ``setup``: set up exactly as ``workload`` does, then stop.
* ``capability``: the untimed reach ladders and known-defect probes.
"""

import argparse
import json
import os
import sys
import time


def timed_phase(wl, seconds, tracer=None):
    """Closed loop, one client: the next op starts when the last one ends."""
    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        op = wl.next_op()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, reason = op.run(), None
        except Exception as exc:  # a failed op is recorded, not fatal
            out, reason = None, getattr(exc, "reason", type(exc).__name__)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        ops.append([op, out, t1 - t0, reason])
        if t1 >= deadline:
            break
    return ops, time.perf_counter() - start


def check_ops(ops):
    """Run each successful op's output check; failures get the check's name."""
    for rec in ops:
        op, out, _, reason = rec
        if reason is None:
            try:
                rec[3] = op.check(out)
            except Exception as exc:  # a check that cannot run fails the op
                rec[3] = "check_" + type(exc).__name__


def _merge_cli_traces(calls):
    """Sum the span summaries the traced CLI processes wrote."""
    spans, weights, caches, parts, top = {}, [0, 0], {}, [], [0, 0.0]
    for call in calls:
        path = call.out_dir + ".trace.json"
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            doc = json.load(fh)
        for name, row in doc["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        weights = [a + b for a, b in zip(weights, doc["trace"]["weights.eval"])]
        t = doc["trace"]["top_level"]["extremal.solve_extremal"]
        top = [top[0] + t[0], top[1] + t[1]]
        for name, hm in doc["cache"].items():
            acc = caches.setdefault(name, [0, 0])
            caches[name] = [acc[0] + hm[0], acc[1] + hm[1]]
        parts.append(dict(doc["parts"], process_s=call.wall, startup_s=doc["parts"]["start_mono"] - call.spawn_mono))
    trace = {"spans": spans, "weights.eval": weights, "top_level": {"extremal.solve_extremal": top}}
    return trace, caches, parts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("workload", "setup", "capability"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import workloads as W
    import tracer as T

    result = {"role": args.role}
    if args.role == "capability":
        n, n_log = W.reach_n(args.seed)
        p, p_log = W.reach_p(args.seed)
        result.update(reach_n=n, reach_n_log=n_log, reach_p=p, reach_p_log=p_log)
        result["probes"] = W.run_probes() if args.trace else []
        return _write(args.out, result)

    first_use = W.warm_up()
    if args.workload == "cli_cold":
        wl = W.CliCold(args.seed, os.path.join(args.work, "cli"))
    elif args.workload == "sweep_remez":
        wl = W.SweepRemez(args.seed)
    else:
        wl = W.LevelsetPotential(args.seed)
    wl.setup()
    result["setup_s"] = time.monotonic() - args.spawn_time
    result["first_use_s"] = first_use
    if args.role == "setup":
        return _write(args.out, result)

    cache0 = T.cache_snapshot()
    if args.trace:
        # untraced then traced halves; their per-op walls give the overhead
        plain, wall_a = timed_phase(wl, args.seconds / 2)
        tracer = None
        if args.workload == "cli_cold":
            wl.wrap = True  # the traced CLI processes trace themselves
            traced, wall_b = timed_phase(wl, args.seconds / 2)
        else:
            tracer = T.Tracer()
            tracer.install()
            traced, wall_b = timed_phase(wl, args.seconds / 2, tracer)
            tracer.uninstall()
        phases = [("plain", plain, wall_a), ("traced", traced, wall_b)]
    else:
        ops, wall = timed_phase(wl, args.seconds)
        phases = [("timed", ops, wall)]
    cache = T.cache_delta(cache0, T.cache_snapshot())

    if args.workload == "cli_cold":
        # child processes were all reaped; the maximum over them is the peak
        timed_calls = [c for c in wl.calls if c.wall > 0]
        result["cli_peak_rss_mb"] = max(c.rss_mb for c in timed_calls)
    for _, ops, _ in phases:
        check_ops(ops)
    if args.workload == "cli_cold":
        by_call = {id(out): rec for _, ops, _ in phases for rec in ops if (out := rec[1]) is not None}
        ok_calls = [rec[1] for _, ops, _ in phases for rec in ops if rec[3] is None]
        for call, reason in wl.checker.repeat_singletons(ok_calls):
            if reason is not None:
                by_call[id(call)][3] = reason
        if args.trace:
            traced_calls = [c for c in wl.calls if c.traced and c.wall > 0]
            result["trace"], cache, result["cli_parts"] = _merge_cli_traces(traced_calls)
    elif args.trace:
        result["trace"] = tracer.summary()
        tracer.dump_spans(os.path.join(args.work, "spans.json"))
    if hasattr(wl, "pool_wraps"):
        result["enset_pool_wraps"] = wl.pool_wraps

    result["cache"] = cache
    result["phases"] = {
        name: {"wall_s": wall, "ops": [[op.kind, dt, reason] for op, _, dt, reason in ops]}
        for name, ops, wall in phases
    }
    return _write(args.out, result)


def _write(path, result):
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
