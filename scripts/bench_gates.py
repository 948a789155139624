#!/usr/bin/env python3
"""Schemas and gates of the BENCH_*.json artifacts, each declared once.

    python3 scripts/bench_gates.py [--tier1] ARTIFACT [PATH]

ARTIFACT is one of histograms, estimation, refresh, serving, storage; PATH
defaults to BENCH_<ARTIFACT>.json. Every artifact must name its bench,
carry its provenance (timestamp_utc, git_rev) and hold its schema fields.
Then its gates run: with --tier1 only the tier-1 gates, which
scripts/check.sh holds every default bench run to (tier-1 and
--probe-smoke); without it the tier-1 gates and then the full-sweep gates,
which scripts/run_benchmarks.sh holds its full runs to. A failed gate
raises, so the script exits non-zero and names the failed assertion.
"""

import argparse
import json


# ------------------------------------------------------------- histograms

def histograms_full(doc):
    assert isinstance(doc["runs"], list) and doc["runs"], "empty runs"
    assert all(r["identical"] for r in doc["runs"]), "non-identical run"
    head = doc["headline"]
    gate = head["meets_2x_target"]
    print(f"headline: M={head['m']} beta={head['beta']} speedup median "
          f"{head['speedup_median']:.2f}x, band p25-p75 "
          f"{head['speedup_p25']:.2f}-{head['speedup_p75']:.2f}x over "
          f"n={head['n']} runs, identical={head['identical']}, "
          f"meets_2x_target="
          f"{'not measured' if gate is None else gate} "
          f"(threads={doc['threads']})")
    assert head["identical"]
    assert head["n"] >= 5, head["n"]
    assert (head["speedup_p25"] <= head["speedup_median"]
            <= head["speedup_p75"])
    if gate is not None:
        assert gate == (head["speedup_p25"] >= 2.0)
        assert gate, (f"2x target missed: p25 speedup "
                      f"{head['speedup_p25']:.2f}x < 2.0")


# ------------------------------------------------------------- estimation

# The §12 batched-fast-lane gates: every workload must be bit-identical to
# the legacy reference, the Eytzinger sweep must agree with
# std::lower_bound, and the batched lane must never lose to the plain
# snapshot lane it builds on.
def estimation_tier1(doc):
    sweep = doc["eytzinger_vs_lower_bound"]
    assert sweep["identical"], "eytzinger_vs_lower_bound: index mismatch"
    for w in doc["workloads"]:
        name = w["name"]
        assert w["identical"], f"{name}: batched estimates not bit-identical"
        assert w["speedup_batched"] >= w["speedup_snapshot"], (
            f"{name}: batched lane ({w['speedup_batched']:.3f}x) lost to the "
            f"snapshot lane ({w['speedup_snapshot']:.3f}x)")
    print(f"estimation gates: {len(doc['workloads'])} workloads "
          f"bit-identical, batched >= snapshot everywhere, eytzinger sweep "
          f"identical ({sweep['speedup_multiprobe']:.2f}x multiprobe).")


def estimation_full(doc):
    assert isinstance(doc["workloads"], list) and doc["workloads"], (
        "no workloads")
    head = doc["headline"]
    print(f"headline: workload={head['workload']} m={head['m']} "
          f"speedup={head['speedup']:.2f}x identical={head['identical']} "
          f"meets_10x_target={head['meets_10x_target']} "
          f"(threads={doc['threads']})")
    assert head["identical"]
    assert head["meets_10x_target"]
    point = doc["point_headline"]
    sweep = doc["eytzinger_vs_lower_bound"]
    print(f"point_headline: batched {point['speedup_batched']:.2f}x vs "
          f"snapshot {point['speedup_snapshot']:.2f}x, multiprobe sweep "
          f"{sweep['speedup_multiprobe']:.2f}x, "
          f"meets_1p5x_target={point['meets_1p5x_target']}")
    assert point["batched_beats_snapshot"]


# ---------------------------------------------------------------- refresh

def refresh_full(doc):
    apply_phase = doc["delta_apply"]
    assert apply_phase["deltas"] > 0 and apply_phase["deltas_per_second"] > 0
    reader = doc["reader_under_churn"]
    assert reader["well_formed"], "malformed estimates under churn"
    assert reader["p99_micros"] >= reader["p50_micros"] >= 0
    assert reader["writer_deltas"] > 0, "no churn reached the readers"
    stats = doc["refresh_stats"]
    assert stats["deltas_applied"] > 0
    assert stats["republish_count"] > 0
    assert stats["log"]["drained"] <= stats["log"]["enqueued"]
    # The §15 self-tuning axis: feedback-tuned estimates must beat the
    # stale v-opt baseline on the drifting workload, each in-place
    # adjustment must be far cheaper than a rebuild, and the tuning-off
    # serving path must be bit-identical to a process that never saw
    # feedback.
    tune = doc["selftune"]
    assert tune["rounds"] > 0 and tune["workload_queries"] > 0
    assert tune["tuned_beats_stale"], (
        f"tuned median q-error {tune['tuned_median_qerror']:.4f} did not "
        f"beat stale {tune['stale_median_qerror']:.4f}")
    assert tune["tuned_median_qerror"] < tune["stale_median_qerror"]
    assert tune["adjustments"] > 0 and tune["observations"] > 0
    assert tune["seconds_per_adjustment"] < tune["rebuild_seconds_per_column"], (
        "an in-place adjustment cost as much as a full rebuild")
    assert tune["tuning_off_bit_identical"], (
        "tuning-off serving diverged from the never-fed baseline")
    print(f"selftune: median q-error {tune['stale_median_qerror']:.4f} stale "
          f"-> {tune['tuned_median_qerror']:.4f} tuned over "
          f"{tune['rounds']} rounds, {tune['adjustments']} adjustments + "
          f"{tune['promotions']} promotions at "
          f"{tune['seconds_per_adjustment']*1e6:.2f}us per change "
          f"({tune['adjustment_cost_vs_rebuild']:.2e} of a rebuild), "
          f"off-path bit-identical={tune['tuning_off_bit_identical']}")
    print(f"refresh: {apply_phase['deltas_per_second']:.0f} deltas/s "
          f"applied, {doc['force_rebuild']['seconds_per_column']*1e3:.2f} "
          f"ms/column rebuild, reader p50 {reader['p50_micros']:.2f}us "
          f"p99 {reader['p99_micros']:.2f}us under "
          f"{stats['rebuilds_total']} rebuilds / "
          f"{stats['republish_count']} republishes")


# ---------------------------------------------------------------- serving

# The §14 tracing budget: the traced serving path must answer
# bit-identically and stay within its overhead target at the default 1/64
# head-sampling rate.
def serving_tier1(doc):
    t = doc["tracing_overhead"]
    assert t["identical"], "tracing_overhead: traced estimates not bit-identical"
    assert t["errors"] == 0, f"tracing_overhead: {t['errors']} request errors"
    assert t["overhead_percent"] < t["target_percent"], (
        f"tracing overhead {t['overhead_percent']:.2f}% exceeds the "
        f"{t['target_percent']:.0f}% budget")
    print(f"tracing gate: {t['overhead_percent']:.2f}% overhead at 1/"
          f"{t['sample_one_in']} sampling (< {t['target_percent']:.0f}% "
          f"budget), estimates bit-identical.")


def serving_full(doc):
    sweep = doc["serving_sweep"]
    assert isinstance(sweep, list) and sweep, "empty sweep"
    for point in sweep:
        assert point["connections"] > 0
        assert point["requests"] > 0 and point["requests_per_second"] > 0
        assert (point["p999_micros"] >= point["p99_micros"]
                >= point["p50_micros"])
        assert point["errors"] == 0, (
            f"client errors at {point['connections']}")
    head = sweep[0]
    print(f"serving: connections axis {[p['connections'] for p in sweep]}, "
          f"{head['requests_per_second']:.0f} req/s at 1 connection, "
          f"p50 {head['p50_micros']:.1f}us p99 {head['p99_micros']:.1f}us "
          f"({doc['workers']} workers)")
    bvj = doc["binary_vs_json"]
    assert bvj["identical"], "binary framing not bit-identical to JSON"
    assert bvj["errors"] == 0, "binary_vs_json client errors"
    print(f"binary_vs_json: {bvj['json_rps']:.0f} req/s json vs "
          f"{bvj['binary_rps']:.0f} req/s binary "
          f"({bvj['binary_speedup']:.2f}x, identical={bvj['identical']})")


# ---------------------------------------------------------------- storage

def storage_full(doc):
    snap = doc["snapshot"]
    assert snap["bytes"] > 0
    assert snap["write_mb_per_second"] > 0 and snap["load_mb_per_second"] > 0
    modes = {point["fsync"] for point in doc["wal_append"]}
    assert modes == {"none", "batch", "every"}, (
        f"fsync axis incomplete: {modes}")
    for point in doc["wal_append"]:
        assert point["records"] > 0 and point["records_per_second"] > 0
    recovery = doc["recovery"]
    assert recovery, "empty recovery sweep"
    for point in recovery:
        assert point["wal_records"] > 0 and point["records_per_second"] > 0
    accept = doc["accept_overhead"]
    assert accept["overhead_percent"] < accept["target_percent"], (
        f"accept-path overhead {accept['overhead_percent']:.2f}% exceeds the "
        f"{accept['target_percent']}% target")
    print(f"storage: snapshot {snap['write_mb_per_second']:.0f} MB/s write / "
          f"{snap['load_mb_per_second']:.0f} MB/s load, wal replay "
          f"{recovery[-1]['records_per_second']:.0f} records/s, /update "
          f"overhead {accept['overhead_percent']:.2f}% "
          f"(target < {accept['target_percent']}%)")


# -------------------------------------------------------------- manifest

# artifact -> (bench name, schema fields, tier-1 gates, full-sweep gates).
# A schema field must appear as a key somewhere in the document; it guards
# the axes that perf tracking across revisions reads.
ARTIFACTS = {
    "histograms": ("histogram_construction", (), None, histograms_full),
    "estimation": (
        "estimation_serving",
        ("eytzinger_vs_lower_bound", "speedup_multiprobe", "speedup_batched",
         "batched_cold_seconds", "point_headline", "identical"),
        estimation_tier1, estimation_full),
    "refresh": (
        "refresh_subsystem",
        ("ticks_skipped", "selftune", "tuned_median_qerror",
         "tuned_beats_stale", "seconds_per_adjustment",
         "tuning_off_bit_identical"),
        None, refresh_full),
    "serving": (
        "http_serving",
        ("connections", "requests_per_second", "p50_micros", "p99_micros",
         "p999_micros", "binary_vs_json", "binary_speedup",
         "tracing_overhead", "overhead_percent", "target_percent"),
        serving_tier1, serving_full),
    "storage": (
        "durable_storage",
        ("snapshot", "write_mb_per_second", "load_mb_per_second",
         "wal_append", "fsync", "writeback_kicks", "recovery", "wal_records",
         "accept_overhead", "overhead_percent", "target_percent"),
        None, storage_full),
}


def all_keys(doc):
    """Every object key at any depth of doc."""
    keys, stack = set(), [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys.update(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return keys


def check(artifact, path, tier1_only):
    bench, fields, tier1, full = ARTIFACTS[artifact]
    with open(path) as f:
        doc = json.load(f)
    assert doc["bench"] == bench, doc.get("bench")
    assert doc["timestamp_utc"] and doc["git_rev"], "missing provenance"
    present = all_keys(doc)
    missing = [field for field in fields if field not in present]
    assert not missing, f"missing fields {missing}"
    if tier1 is not None:
        tier1(doc)
    if not tier1_only:
        full(doc)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="run only the tier-1 gates")
    parser.add_argument("artifact", choices=sorted(ARTIFACTS))
    parser.add_argument("path", nargs="?")
    args = parser.parse_args()
    check(args.artifact, args.path or f"BENCH_{args.artifact}.json",
          args.tier1)


if __name__ == "__main__":
    main()
