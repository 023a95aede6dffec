#!/usr/bin/env python3
"""bench-smoke gate: merge bench JSON outputs and fail on perf regressions.

Reads the JSON emitted by `bench_throughput --json` (undirected and,
optionally, `--directed`) and `bench_updates --json`, extracts the headline metrics, writes the combined
BENCH report (the repo's perf-trajectory record, uploaded as a CI
artifact), and exits non-zero when any metric regresses more than the
tolerance against the checked-in baseline.

Metrics measured but absent from the baseline file are treated as "record
new baseline": they are printed, stamped into the report with ok=true, and
do not fail the gate — so adding a bench (or a new row to one) never
turns into a KeyError or an instant red build. Promote them into the
baseline file once a sane floor is known.

The baseline values are deliberately conservative floors/ceilings (roughly
half of what a single modern core achieves) so the gate catches real
regressions — an accidentally quadratic repair path, a lock on the query
hot path — rather than runner-to-runner noise.

Usage:
  check_bench_regression.py --throughput tp.json --updates up.json \
      [--directed-throughput tpd.json] \
      [--server srv.json] [--cached-server srv_cached.json] \
      [--overload-server srv_overload.json] \
      --baseline bench/baselines/bench_smoke_baseline.json \
      --out BENCH_pr10.json [--tolerance 0.20]

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def throughput_metrics(throughput, prefix=""):
    qps_rows = throughput.get("throughput", [])
    latency = throughput.get("latency_us", {})
    metrics = {
        f"{prefix}query_qps_best": max((r["qps"] for r in qps_rows),
                                       default=0.0),
    }
    for pct in ("p50", "p99"):
        if pct in latency:
            metrics[f"{prefix}query_{pct}_us"] = latency[pct]
    # Single-threaded path() latency (backends with paths only).
    path_latency = throughput.get("path_latency_us", {})
    for pct in ("p50", "p99"):
        if pct in path_latency:
            metrics[f"{prefix}path_{pct}_us"] = path_latency[pct]
    # Index open-path metrics (vicinity backends only: the baselines have
    # no index file, so their runs simply don't emit the object).
    index_open = throughput.get("index_open", {})
    if "speedup" in index_open:
        metrics[f"{prefix}index_open_speedup"] = index_open["speedup"]
    # The saved index's size: gated as a ceiling, so distance columns that
    # slide back from one byte to four per entry trip the gate.
    if "file_bytes" in index_open:
        metrics[f"{prefix}index_file_mib"] = index_open["file_bytes"] / 2**20
    if "mapped_ms" in index_open:
        metrics[f"{prefix}index_open_mapped_ms"] = index_open["mapped_ms"]
    for side in ("mapped", "heap"):
        key = f"{side}_rss_delta_bytes"
        if key in index_open:
            metrics[f"{prefix}index_open_{side}_rss_mib"] = (
                index_open[key] / 2**20)
    return metrics


def server_metrics(server):
    """Headline rows from `bench_server --json`: sustained qps through the
    full serving stack and the client-observed tail latency."""
    metrics = {}
    if "server_qps" in server:
        metrics["server_qps"] = server["server_qps"]
    latency = server.get("latency_us", {})
    for pct in ("p50", "p99"):
        if pct in latency:
            metrics[f"server_{pct}_us"] = latency[pct]
    return metrics


def cached_server_metrics(server):
    """Rows from a cache-enabled `bench_server --json` run (--cache-mb > 0
    with a Zipf-skewed workload): steady-state hit rate over the measured
    window, the cached serving qps, and the cached tail latency. Paired
    with the uncached server_qps/server_p99_us rows, these gate the
    cached-vs-uncached sweep."""
    metrics = {}
    cache = server.get("cache", {})
    if cache.get("mb", 0) > 0 and "hit_rate" in cache:
        metrics["cache_hit_rate"] = cache["hit_rate"]
    if "server_qps" in server:
        metrics["cached_qps"] = server["server_qps"]
    latency = server.get("latency_us", {})
    for pct in ("p50", "p99"):
        if pct in latency:
            metrics[f"cached_{pct}_us"] = latency[pct]
    return metrics


def overload_server_metrics(server):
    """Rows from the slow-reader abuse `bench_server --json` run
    (--slow-readers > 0 with a bounded --max-conn-buffer-kb): the
    well-behaved connections' qps and tail latency while the abuser is
    attached, plus how much process RSS the abuse managed to pin. The
    bench binary itself hard-fails when no eviction happened or RSS blew
    past its bound, so these rows track the cost of surviving abuse, not
    whether the defense works."""
    metrics = {}
    robustness = server.get("robustness", {})
    if robustness.get("slow_readers", 0) > 0:
        if "rss_growth_mib" in robustness:
            metrics["overload_rss_growth_mib"] = robustness["rss_growth_mib"]
        if "slow_client_closes" in robustness:
            metrics["overload_slow_client_closes"] = (
                robustness["slow_client_closes"])
    if "server_qps" in server:
        metrics["overload_qps"] = server["server_qps"]
    latency = server.get("latency_us", {})
    for pct in ("p50", "p99"):
        if pct in latency:
            metrics[f"overload_{pct}_us"] = latency[pct]
    return metrics


def update_metrics(updates):
    metrics = {}
    if "updates_per_sec" in updates:
        metrics["updates_per_sec"] = updates["updates_per_sec"]
    for kind in ("insert", "delete"):
        if kind in updates and "per_sec" in updates[kind]:
            metrics[f"{kind}_per_sec"] = updates[kind]["per_sec"]
    post = updates.get("post_update_query", {})
    for pct in ("p50", "p99"):
        if f"{pct}_us" in post:
            metrics[f"post_update_query_{pct}_us"] = post[f"{pct}_us"]
    return metrics


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--throughput", required=True)
    ap.add_argument("--updates", required=True)
    ap.add_argument("--directed-throughput", default=None,
                    help="bench_throughput --directed output; metrics gain "
                         "a directed_ prefix")
    ap.add_argument("--server", default=None,
                    help="bench_server --json output; contributes "
                         "server_qps / server_p50_us / server_p99_us")
    ap.add_argument("--cached-server", default=None,
                    help="cache-enabled bench_server --json output "
                         "(--cache-mb > 0); contributes cache_hit_rate / "
                         "cached_qps / cached_p50_us / cached_p99_us")
    ap.add_argument("--overload-server", default=None,
                    help="slow-reader abuse bench_server --json output "
                         "(--slow-readers > 0); contributes overload_qps / "
                         "overload_p50_us / overload_p99_us / "
                         "overload_rss_growth_mib / "
                         "overload_slow_client_closes")
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tolerance", type=float, default=None,
                    help="override the baseline file's tolerance")
    args = ap.parse_args()

    throughput = load_json(args.throughput)
    updates = load_json(args.updates)
    baseline = load_json(args.baseline)

    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.get("tolerance", 0.20))
    metrics = {}
    metrics.update(throughput_metrics(throughput))
    metrics.update(update_metrics(updates))
    directed = None
    if args.directed_throughput:
        directed = load_json(args.directed_throughput)
        metrics.update(throughput_metrics(directed, prefix="directed_"))
    server = None
    if args.server:
        server = load_json(args.server)
        metrics.update(server_metrics(server))
    cached_server = None
    if args.cached_server:
        cached_server = load_json(args.cached_server)
        metrics.update(cached_server_metrics(cached_server))
    overload_server = None
    if args.overload_server:
        overload_server = load_json(args.overload_server)
        metrics.update(overload_server_metrics(overload_server))

    baseline_metrics = baseline["metrics"]
    failures = []
    report_rows = {}
    # Gate every baselined metric; a baselined metric the benches no longer
    # emit is a hard failure (the gate silently losing coverage is itself a
    # regression).
    for name, spec in baseline_metrics.items():
        if name not in metrics:
            failures.append(f"{name}: missing from bench output")
            continue
        measured = metrics[name]
        ref = spec["value"]
        higher_is_better = spec["higher_is_better"]
        if higher_is_better:
            limit = ref * (1.0 - tolerance)
            ok = measured >= limit
        else:
            limit = ref * (1.0 + tolerance)
            ok = measured <= limit
        report_rows[name] = {
            "measured": measured,
            "baseline": ref,
            "limit": limit,
            "higher_is_better": higher_is_better,
            "ok": ok,
        }
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {name}: measured={measured:.2f} "
              f"baseline={ref:.2f} limit={limit:.2f} "
              f"({'>=' if higher_is_better else '<='})")
        if not ok:
            failures.append(
                f"{name}: {measured:.2f} vs limit {limit:.2f} "
                f"(baseline {ref:.2f}, tolerance {tolerance:.0%})")

    # Measured metrics without a baseline entry: record, don't gate.
    new_metrics = sorted(set(metrics) - set(baseline_metrics))
    for name in new_metrics:
        report_rows[name] = {
            "measured": metrics[name],
            "baseline": None,
            "limit": None,
            "higher_is_better": None,
            "ok": True,
            "new": True,
        }
        print(f"  [new ] {name}: measured={metrics[name]:.2f} "
              f"(no baseline; recording — promote into "
              f"{args.baseline} to start gating)")

    report = {
        "metrics": metrics,
        "gate": {"tolerance": tolerance, "rows": report_rows,
                 "new_metrics": new_metrics, "passed": not failures},
        "throughput": throughput,
        "updates": updates,
    }
    if directed is not None:
        report["directed_throughput"] = directed
    if server is not None:
        report["server"] = server
    if cached_server is not None:
        report["cached_server"] = cached_server
    if overload_server is not None:
        report["overload_server"] = overload_server
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    if failures:
        print("bench-smoke regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench-smoke regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
