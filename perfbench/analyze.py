"""Turn the records perfbench writes into end-to-end and per-layer metrics.

The C++ runner (src/main.cpp) writes one JSON object per line:
  run     configuration: nproc, rank threads, pool workers, SIMD tier, ...
  setup   seconds of each set-up repetition
  op      one collective operation: per-rank timestamps t0 (left the
          starting barrier), t1 (public call returned), t2 (own output
          checked), per-rank phase rows, and, in traced segments, spans,
          counter deltas and extras
  cycle   on-disk bytes of one cycle's output, by kind
  end     peak RSS

Operations belong to a segment: "warm" (one warm-up cycle, only checked),
"plain" (untraced, timed) and "traced". Every arithmetic rule the metrics
rest on lives here, so perfbench/test_analyze.py can test it.
"""

import json
import math
import statistics
from fractions import Fraction

KINDS = ("write", "read", "query")
WRITE_ROWS = ("gather", "tree_build", "scatter", "transfer", "bat_build",
              "file_write", "metadata")
READ_ROWS = ("metadata", "request", "serve", "merge", "local")
BAT_ROWS = ("edges", "encode", "sort", "treelets", "reorder", "bitmaps")
SPAN_LAYERS = ("op", "io/writer", "io/series", "io/series_reader", "io/reader",
               "io/data_service", "core/bat_query", "oracle")
# Each percentile must have at least this many samples above it, so p90
# needs MIN_SAMPLES samples.
MIN_ABOVE = 10
MIN_SAMPLES = 100


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def process_seed(seed, proc, processes):
    """Input seed of runner process `proc` in a run with `seed`: each
    process generates its own data set, so that a run's pooled figures
    average over several data layouts, and no two runs share one.
    """
    return seed * processes + proc


def tag_process(records, proc):
    """Mark the records of one runner process before pooling them."""
    for r in records:
        r["proc"] = proc
    return records


# ---- percentiles -----------------------------------------------------------

def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`."""
    s = sorted(values)
    k = max(0, math.ceil(q * len(s)) - 1)
    return s[k]


def samples_above(n, q):
    """Samples ranked strictly above the nearest-rank q-quantile of n."""
    return n - max(1, math.ceil(q * n))


def min_samples(q, above=MIN_ABOVE):
    """Smallest sample count whose q-quantile has `above` samples above it."""
    n = 1
    while samples_above(n, q) < above:
        n += 1
    return n


# ---- one operation ---------------------------------------------------------

def wall_ns(op):
    """Stopwatch from the barrier that starts the op to the last return."""
    return max(op["t1"]) - min(op["t0"])


def critical_rank(op):
    """The rank whose call returned last (lowest rank on a tie)."""
    t1 = op["t1"]
    return t1.index(max(t1))


def untiled_ms(op):
    """Wall time not covered by the critical-path rank's phase rows."""
    rows = op["phases"][critical_rank(op)]
    return wall_ns(op) / 1e6 - 1e3 * sum(rows)


def untiled_negative(records, tolerance_ms=0.01):
    """Write and read ops whose critical-path rows exceed the wall time:
    the rows could then not tile it."""
    return sum(1 for r in records if r["type"] == "op" and r["kind"] in ("write", "read")
               and untiled_ms(r) < -tolerance_ms)


def covered_ns(interval, children):
    """Length of the part of `interval` covered by the union of children."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans, rank):
    """Self time per layer of one rank's spans: each span's duration minus
    the part of its interval that its child spans cover. `spans` holds
    [rank, layer, parent, t0, t1] rows; parent indexes the rank's own rows.
    """
    mine = [s for s in spans if s[0] == rank]
    out = {}
    for i, (_, layer, _, t0, t1) in enumerate(mine):
        children = [(c[3], c[4]) for c in mine if c[2] == i]
        out[layer] = out.get(layer, 0) + (t1 - t0) - covered_ns((t0, t1), children)
    return out


# ---- disk accounting -------------------------------------------------------

def disk_bytes(cycle):
    """Everything one cycle put on disk: leaf files, .batmeta, manifest."""
    return (cycle["leaf_bytes"] + cycle["batmeta_bytes"] + cycle["manifest_bytes"]
            + cycle["other_bytes"])


def disk_bytes_per_particle(cycles):
    written = sum(c["particles_written"] for c in cycles)
    return sum(disk_bytes(c) for c in cycles) / written if written else 0.0


# ---- whole run -------------------------------------------------------------

def ops_of(records, seg, kind=None):
    return [r for r in records if r["type"] == "op" and r["seg"] == seg
            and (kind is None or r["kind"] == kind)]


def run_info(records):
    return next(r for r in records if r["type"] == "run")


def tally(records):
    """(attempted, failed) over every operation of the run."""
    ops = [r for r in records if r["type"] == "op"]
    return len(ops), sum(1 for r in ops if not r["ok"])


def budget_ok(info):
    return info["rank_threads"] + info["pool_workers"] <= info["nproc"]


def end_to_end(records):
    """End-to-end metrics of an untraced run: {name: (value, unit, n)}.

    Percentiles and rates pool the operations of every runner process.
    Each process runs on its own data set (process_seed), so the pooled
    figures average over the data layouts of all processes.
    """
    m = {}
    setup = [r["seconds"] for r in records if r["type"] == "setup"]
    m["setup_s"] = (statistics.median(setup), "s", len(setup))
    for kind in KINDS:
        ops = ops_of(records, "plain", kind)
        walls = [wall_ns(op) / 1e6 for op in ops]
        if samples_above(len(walls), 0.9) < MIN_ABOVE:
            raise ValueError(f"{len(walls)} {kind} samples: too few for p90")
        n = len(walls)
        stem = "query" if kind == "query" else f"{kind}_step"
        m[f"{stem}_p50_ms"] = (percentile(walls, 0.5), "ms", n)
        m[f"{stem}_p90_ms"] = (percentile(walls, 0.9), "ms", n)
        total_s = sum(walls) / 1e3
        if kind == "query":
            m["query_per_s"] = (n / total_s, "1/s", n)
        else:
            m[f"{kind}_mpps"] = (sum(sum(op["particles"]) for op in ops) / total_s / 1e6,
                                 "Mparticles/s", n)
    cycles = [r for r in records if r["type"] == "cycle" and r["seg"] == "plain"]
    m["disk_bytes_per_particle"] = (disk_bytes_per_particle(cycles), "B", len(cycles))
    rss = [r["peak_rss_kb"] / 1024.0 for r in records if r["type"] == "end"]
    m["peak_rss_mb"] = (statistics.median(rss), "MB", len(rss))
    attempted, failed = tally(records)
    m["ok_ops_pct"] = (100.0 * (attempted - failed) / attempted, "%", attempted)
    return m


def _mean(xs):
    """Exact mean, so a mean over whole cycles repeats to the last bit
    however many cycles a run completes."""
    return float(sum(map(Fraction, xs)) / len(xs)) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(records):
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    m = {}
    info = run_info(records)
    writes = ops_of(records, "traced", "write")
    reads = ops_of(records, "traced", "read")
    queries = ops_of(records, "traced", "query")

    # io/writer, core/bat_builder and vmpi: critical-path rank rows.
    for i, row in enumerate(WRITE_ROWS):
        m[f"writer.{row}_ms"] = (_mean([1e3 * op["phases"][critical_rank(op)][i]
                                        for op in writes]), "ms")
    m["writer.untiled_ms"] = (_mean([untiled_ms(op) for op in writes]), "ms")
    for i, row in enumerate(BAT_ROWS):
        m[f"bat.{row}_ms"] = (_mean([1e3 * op["bat"][critical_rank(op)][i]
                                     for op in writes]), "ms")
    build_ns = sum(1e9 * sum(p[WRITE_ROWS.index("bat_build")] for p in op["phases"])
                   for op in writes)
    m["bat.ns_per_particle"] = (
        _ratio(build_ns, sum(sum(op["particles"]) for op in writes)), "ns")
    m["vmpi.rank_skew_ms"] = (_mean([(max(op["t1"]) - min(op["t1"])) / 1e6
                                     for op in writes]), "ms")
    m["vmpi.transfer_bytes"] = (
        _mean([op["counters"]["write.transfer_bytes"] for op in writes]), "B")

    # Data sets the read ops read (core/agg_tree, core/bat_file, core/metadata).
    ds = [op["extra"] for op in reads if "leaves" in op.get("extra", {})]
    leaves = _mean([e["leaves"] for e in ds])
    m["agg_tree.leaves"] = (leaves, "count")
    m["agg_tree.ranks_per_leaf"] = (
        _ratio(sum(e["writer_ranks"] for e in ds), sum(e["leaves"] for e in ds)), "ratio")
    m["agg_tree.leaf_particles_max_over_mean"] = (
        _mean([e["leaf_max_over_mean"] for e in ds]), "ratio")
    m["bat_file.layout_overhead"] = (
        _ratio(sum(e["leaf_file_bytes"] for e in ds), sum(e["raw_bytes"] for e in ds)),
        "ratio")
    m["bat_file.open_ms"] = (_mean([e["bat_file_open_ms"] for e in ds]), "ms")
    m["metadata.load_ms"] = (_mean([e["metadata_load_ms"] for e in ds]), "ms")
    m["metadata.bytes"] = (_mean([e["metadata_bytes"] for e in ds]), "B")

    # io/reader + io/read_protocol.
    for i, row in enumerate(READ_ROWS):
        m[f"reader.{row}_ms"] = (_mean([1e3 * op["phases"][critical_rank(op)][i]
                                        for op in reads]), "ms")
    m["reader.untiled_ms"] = (_mean([untiled_ms(op) for op in reads]), "ms")
    m["reader.request_msgs"] = (
        _mean([op["counters"]["read.request_msgs"] for op in reads]), "count")
    m["reader.bytes_read"] = (_mean([sum(op["bytes"]) for op in reads]), "B")

    # io/leaf_cache, over reads and query rounds.
    rq = reads + queries
    hits = sum(op["counters"]["read.leaf_cache_hit"] for op in rq)
    misses = sum(op["counters"]["read.leaf_cache_miss"] for op in rq)
    m["leaf_cache.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["leaf_cache.misses"] = (_ratio(misses, len(rq)), "count")

    # io/data_service.
    rounds = sum(op["counters"]["service.round_count"] for op in queries)
    m["service.round_ms"] = (
        _ratio(sum(op["counters"]["service.round_us_sum"] for op in queries), rounds) / 1e3,
        "ms")
    for name, unit in (("request_msgs", "count"), ("bytes_shipped", "B"),
                       ("particles_served", "count")):
        m[f"service.{name}"] = (
            _mean([op["counters"][f"service.{name}"] for op in queries]), unit)

    # core/bat_query, from the Dataset::query replay with a QueryStats.
    qs = [op["extra"]["query"] for op in queries if "query" in op.get("extra", {})]
    for name in ("nodes_visited", "pruned_by_box", "pruned_by_bitmap",
                 "points_tested", "points_emitted"):
        m[f"query.{name}"] = (_mean([q[name] for q in qs]), "count")
    attempts = sum(q["points_tested"] + q["points_fast_path"] for q in qs)
    m["query.emit_per_test"] = (_ratio(sum(q["points_emitted"] for q in qs), attempts),
                                "ratio")

    # io/series.
    nranks = info["rank_threads"]
    m["series.plan_reuse_ratio"] = (
        _ratio(sum(1 for op in writes if op["series"]["ranks_reused_plan"] == nranks),
               len(writes)), "ratio")
    clean = sum(op["series"]["treelets_clean"] for op in writes)
    written = sum(op["series"]["treelets_written"] for op in writes)
    m["series.treelets_clean"] = (_ratio(clean, len(writes)), "count")
    m["series.treelets_written"] = (_ratio(written, len(writes)), "count")
    m["series.delta_hit_ratio"] = (_ratio(clean, clean + written), "ratio")
    m["series.manifest_bytes"] = (
        _mean([op.get("extra", {}).get("manifest_bytes", 0) for op in writes]), "B")

    # Self time per layer on the critical-path rank, per op in which the
    # layer appears.
    per_layer_self = {layer: [] for layer in SPAN_LAYERS}
    for op in writes + reads + queries:
        for layer, ns in self_times_ns(op["spans"], critical_rank(op)).items():
            per_layer_self.setdefault(layer, []).append(ns / 1e6)
    for layer in SPAN_LAYERS:
        name = layer.replace("/", "_")
        m[f"self.{name}_ms"] = (_mean(per_layer_self[layer]), "ms")

    # Tracing overhead: traced minus untraced median wall time.
    for kind in KINDS:
        plain = [wall_ns(op) / 1e6 for op in ops_of(records, "plain", kind)]
        traced = [wall_ns(op) / 1e6 for op in ops_of(records, "traced", kind)]
        m[f"trace.{kind}_overhead_ms"] = (
            statistics.median(traced) - statistics.median(plain), "ms")
    return m


COUNT_FIELDS = ("counters", "series")


def cycle_counts(records, seg="traced"):
    """Per-cycle totals of every count the per-layer metrics use, keyed by
    (process, cycle); equal rows within a process mean the counts repeat
    exactly from cycle to cycle."""
    rows = {}
    for op in ops_of(records, seg):
        row = rows.setdefault((op.get("proc", 0), op["cycle"]), {})
        for field in COUNT_FIELDS:
            for k, v in op.get(field, {}).items():
                if isinstance(v, int):
                    row[k] = row.get(k, 0) + v
        for k, v in op.get("extra", {}).get("query", {}).items():
            row["query." + k] = row.get("query." + k, 0) + v
    return rows


def counts_repeat(records, seg="traced"):
    """Whether every process's cycles have the same counts. Processes run
    on different data sets, so their counts differ from one another."""
    first = {}
    for (proc, _), row in sorted(cycle_counts(records, seg).items()):
        if first.setdefault(proc, row) != row:
            return False
    return True
