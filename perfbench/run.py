"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-5e4 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs operations untraced, in whole φ cycles, for about
``--seconds`` and reports the end-to-end metrics.  Operation times are
reported normalized to a reference host speed (see ``hostspeed.py``);
the raw wall times are printed next to them.
``--trace 1`` runs each operation twice, untraced then traced with the
same inputs and seeds, checks that both give bit-identical answers,
rounds, messages and bits, and reports the per-module metrics; the
end-to-end numbers always come from untraced runs.  Human-readable
lines come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per run, each in a fresh interpreter; setup_s is the median of
#: their normalized times.
SETUP_PROBES = 5


def _import_program():
    """Import the program from the checkout's ``src``; exit 2 if it is absent."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import trace, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    return trace, workloads


def _set_up(workloads, name: str, seed: int):
    workload = workloads.WORKLOADS[name](seed)
    workload.warm_up()
    return workload


def _probe_setup(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to its finished set-up."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _tail(samples):
    """Highest percentile with at least 10 samples above it, or None."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _fmt_tail(label: str, samples, scale: float, unit: str) -> str:
    tail = _tail(samples)
    if tail is None:
        return (f"{label}: n/a ({len(samples)} samples; a tail needs at "
                "least 11)")
    value, pct = tail
    return (f"{label}: {value * scale:.6g} {unit} at p{pct:.2f} "
            f"({len(samples)} samples, 10 above)")


def _host_facts() -> dict:
    """What the working-set argument depends on and the run can see
    without reading files; cache sizes of the tuning host are recorded
    in manifest.json."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _keep_going(started: float, last_s: float, seconds: float) -> bool:
    """Whether another step fits: stop once the next one would end more
    than half a step past ``seconds``, so a run measures ``seconds`` on
    average however long one step takes."""
    return time.perf_counter() - started + last_s / 2.0 < seconds


def _median(values):
    return statistics.median(values) if values else 0.0


def run_untraced(workload, hostspeed, seconds: float):
    """Whole cycles of operations (one φ cycle, or one operation).

    Returns the results and the reference times taken before the first
    operation and after each one.
    """
    results = []
    refs = [hostspeed.measure()]
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        for _ in range(workload.cycle):
            results.append(workload.run_op(len(results)))
            refs.append(hostspeed.measure())
        if not _keep_going(started, time.perf_counter() - cycle_started,
                           seconds):
            return results, refs


def run_traced(workload, trace, seconds: float):
    """Pairs of the same operation, untraced then traced."""
    session = trace.TraceSession()
    pairs = []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        index = len(pairs)
        plain = workload.run_op(index)
        traced, layers = session.run(lambda: workload.run_op(index))
        pairs.append((plain, traced, layers))
        if not _keep_going(started, time.perf_counter() - pair_started,
                           seconds):
            return pairs


def normalized(walls, refs, nominal_s: float) -> list:
    """Each wall time at the reference host speed; ``refs`` holds the
    reference times taken before the first and after each timed step."""
    return [wall * nominal_s / ((before + after) / 2.0)
            for wall, before, after in zip(walls, refs, refs[1:])]


def end_to_end(results, norms, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_norm_s": (len(norms) / sum(norms), "1/s"),
        "op_p50_norm_s": (_median(norms), "s"),
        # Medians: a few operations of a run retry whole sub-protocols
        # and take up to twice the usual rounds; a mean follows them.
        "rounds_per_op": (_median([r.rounds for r in results]), "rounds"),
        "messages_per_node": (_median([r.messages for r in results]), "msgs"),
        "bits_per_node": (_median([r.bits for r in results]), "bits"),
        "answered_frac": (
            statistics.fmean(r.answered_frac for r in results), "fraction"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_lines(results) -> list:
    """Accuracy, failures, tails and service figures (printed, unbounded)."""
    walls = [r.wall_s for r in results]
    failed = [r for r in results if not r.ok]
    errors = [r.rank_error for r in results]
    lines = [
        "op_wall_s: " + " ".join(f"{w:.4f}" for w in walls),
        f"ops_per_s: {len(walls) / sum(walls):.6g} 1/s (wall)",
        f"op_p50_s: {_median(walls):.6g} s (wall)",
        f"rank_error_p50: {_median(errors):.6g} fraction of n",
        f"failed_frac: {len(failed) / len(results):.6g} fraction "
        f"({len(failed)} of {len(results)})",
        _fmt_tail("op_tail_s", walls, 1.0, "s"),
    ]
    for r in failed[:5]:
        lines.append(f"failed op: rank_error={r.rank_error:.6g} {r.error}")
    latencies = [
        latency for r in results
        for latency in r.extra.get("query_latencies_s", ())
    ]
    if latencies:
        lines.append(
            f"query_p50_us: {_median(latencies) * 1e6:.6g} us "
            f"({len(latencies)} queries)"
        )
        lines.append(_fmt_tail("query_tail_us", latencies, 1e6, "us"))
        lines.append(
            f"query_p99_us: {_quantile(latencies, 0.99) * 1e6:.6g} us"
        )
        lines.append(
            "rebuild_s: "
            f"{_median([r.extra['rebuild_s'] for r in results]):.6g} s"
        )
    return lines


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(pairs) -> dict:
    """Per-module metrics: per-operation means over the traced operations."""
    traced = [layers for _, _, layers in pairs]
    count = len(traced)
    keys = set()
    for layers in traced:
        keys.update(k for k in layers if not k.startswith("_"))
    out = {key: sum(layers.get(key, 0.0) for layers in traced) / count
           for key in keys}
    extras = [t.extra for _, t, _ in pairs]
    for key in ("core.exact.iterations", "core.service.rebuild_lanes"):
        out[key] = sum(float(e.get(key, 0)) for e in extras) / count
    totals = {k: sum(layers.get(k, 0.0) for layers in traced) for k in keys}
    attempted = totals.get("gossip.pull.attempted", 0.0)
    out["gossip.pull.ok_frac"] = (
        totals.get("gossip.pull.ok", 0.0) / attempted if attempted else 0.0)
    partners = totals.get("topology.sampler.draw.partners", 0.0)
    redrawn = totals.get("utils.rand.resample.redrawn", 0.0)
    out["utils.rand.partner_useful_frac"] = (
        partners / (partners + redrawn) if partners else 0.0)
    rounds = [s for layers in traced for s in layers["_engine_round_s"]]
    out["gossip.engine.round_p50_us"] = _median(rounds) * 1e6
    plain = [p for p, _, _ in pairs]
    out["obs.trace_overhead_frac"] = (
        _median([t.wall_s for _, t, _ in pairs])
        / _median([p.wall_s for p in plain]) - 1.0
    )
    latencies = [x for p in plain for x in p.extra.get("query_latencies_s", ())]
    out["core.service.query_p50_us"] = _median(latencies) * 1e6
    out["core.service.query_p99_us"] = (
        _quantile(latencies, 0.99) * 1e6 if latencies else 0.0)
    out["core.service.rebuild_s"] = _median(
        [p.extra["rebuild_s"] for p in plain if "rebuild_s" in p.extra])
    out["rank_error_p50"] = _median([p.rank_error for p in plain])
    out["failed_frac"] = sum(not p.ok for p in plain) / len(plain)
    return out


def module_table(pairs, trace) -> list:
    """Per-module self time per traced operation; rows add up to the op."""
    traced = [layers for _, _, layers in pairs]
    count = len(traced)
    rows = {}
    for layers in traced:
        for row, value in layers["_rows"].items():
            rows[row] = rows.get(row, 0.0) + value / count
    unattributed = sum(layers["trace.unattributed_s"] for layers in traced) / count
    op_s = sum(layers["trace.op_s"] for layers in traced) / count
    lines = [f"{'module':<22}{'self_s/op':>12}{'share':>9}"]
    order = [r for r in trace.MODULE_ROWS if r in rows] + sorted(
        r for r in rows if r not in trace.MODULE_ROWS)
    for row in order:
        lines.append(f"{row:<22}{rows[row]:>12.6f}{rows[row] / op_s:>9.1%}")
    lines.append(f"{'unattributed':<22}{unattributed:>12.6f}"
                 f"{unattributed / op_s:>9.1%}")
    total = sum(rows.values()) + unattributed
    lines.append(f"{'sum (traced op)':<22}{total:>12.6f}{total / op_s:>9.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    trace, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        _set_up(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # Imported past the set-up-only return: the set-up probes do not
    # build the reference's arrays.
    from perfbench import hostspeed

    if not args.trace:
        probes = []
        refs = [hostspeed.measure()]
        for _ in range(SETUP_PROBES):
            probes.append(_probe_setup(args.workload, args.seed))
            refs.append(hostspeed.measure())
        setup_s = _median(normalized(probes, refs, hostspeed.NOMINAL_S))
        print(f"setup wall_s: {_median(probes):.6g} s median of "
              f"{SETUP_PROBES} fresh interpreters")
    workload = _set_up(workloads, args.workload, args.seed)
    print(f"workload {workload.name} seed {args.seed} n {workload.n} "
          f"callers 1 (closed loop) trace {args.trace}")
    print("host " + json.dumps(_host_facts(), sort_keys=True))

    if args.trace:
        pairs = run_traced(workload, trace, args.seconds)
        results = [p for p, _, _ in pairs] + [t for _, t, _ in pairs]
        mismatched = [i for i, (p, t, _) in enumerate(pairs)
                      if p.fingerprint != t.fingerprint]
        print(f"traced ops {len(pairs)}; bit-identical to untraced: "
              f"{'yes' if not mismatched else f'NO (ops {mismatched})'}")
        for line in module_table(pairs, trace):
            print(line)
        layer = per_layer(pairs)
        metrics = {key: {"value": layer.get(key, 0.0), "unit": unit}
                   for key, (unit, _) in trace.PER_LAYER.items()}
        correct = not mismatched
    else:
        results, refs = run_untraced(workload, hostspeed, args.seconds)
        norms = normalized([r.wall_s for r in results], refs,
                           hostspeed.NOMINAL_S)
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit)
                   in end_to_end(results, norms, setup_s).items()}
        for key, entry in metrics.items():
            print(f"{key}: {entry['value']:.6g} {entry['unit']}")
        print(f"host_ref_s: {_median(refs):.6g} s median over {len(refs)} "
              f"measurements (nominal {hostspeed.NOMINAL_S} s)")
        correct = True
    for line in report_lines(results):
        print(line)
    failed = sum(not r.ok for r in results)
    correct = correct and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
