// perfbench: the repository's end-to-end benchmark runner.
//
// Runs one named workload through the public collective API
// (write_particles, SeriesWriter::write_timestep, read_particles,
// DataService::query_round, Dataset::query) on ONE persistent vmpi runtime
// and records, for every collective operation, each rank's timestamps:
//
//   t0  the rank left the barrier that starts the operation,
//   t1  the rank's public call(s) returned,
//   t2  the rank finished checking its own output (outside the timed part).
//
// The operation's wall time is max(t1) - min(t0), a stopwatch from outside
// the library. Every output is checked against an oracle computed from the
// generated inputs (perfbench/README.md lists the checks). With --trace 1
// the runner also records spans per rank around each public call (sharing
// the operation id), public obs::MetricsRegistry counter deltas around each
// operation, and replays queries through Dataset::query with a QueryStats.
//
// Records are kept in memory and written as JSON lines to --records when
// the run ends; perfbench/analyze.py turns them into metrics. run.py builds
// this program, runs it in several processes, and prints the result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bat_file.hpp"
#include "core/dataset.hpp"
#include "core/metadata.hpp"
#include "io/data_service.hpp"
#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "io/series.hpp"
#include "io/writer.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "vmpi/comm.hpp"
#include "workloads/boiler.hpp"
#include "workloads/decomposition.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace bat;

namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double seconds_since(std::int64_t t0) { return 1e-9 * static_cast<double>(now_ns() - t0); }

// ---- output oracle ---------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Order-independent multiset digest of particles: the count plus the
/// wrapping sum of a hash of each particle's position and attribute bits.
struct Digest {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void add(const Digest& o) {
        count += o.count;
        sum += o.sum;
    }
    void add_point(Vec3 p, std::span<const double> attrs) {
        std::uint64_t h = 0x243f6a8885a308d3ull;
        for (const float c : {p.x, p.y, p.z}) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &c, sizeof(bits));
            h = mix64(h ^ bits);
        }
        for (const double v : attrs) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            h = mix64(h ^ bits);
        }
        ++count;
        sum += h;
    }
    bool operator==(const Digest&) const = default;
};

Digest digest_of(const ParticleSet& ps) {
    Digest d;
    std::vector<double> attrs(ps.num_attrs());
    for (std::size_t i = 0; i < ps.count(); ++i) {
        for (std::size_t a = 0; a < attrs.size(); ++a) {
            attrs[a] = ps.attr(a)[i];
        }
        d.add_point(ps.position(i), attrs);
    }
    return d;
}

/// Brute-force full-resolution result of `q` over `global`.
Digest brute_force(const ParticleSet& global, const BatQuery& q) {
    Digest d;
    std::vector<double> attrs(global.num_attrs());
    for (std::size_t i = 0; i < global.count(); ++i) {
        const Vec3 p = global.position(i);
        if (q.box) {
            const Box& b = *q.box;
            const bool in = q.inclusive_upper
                                ? b.contains(p)
                                : (p.x >= b.lower.x && p.x < b.upper.x && p.y >= b.lower.y &&
                                   p.y < b.upper.y && p.z >= b.lower.z && p.z < b.upper.z);
            if (!in) {
                continue;
            }
        }
        bool pass = true;
        for (const AttrFilter& f : q.attr_filters) {
            const double v = global.attr(f.attr)[i];
            pass = pass && v >= f.lo && v <= f.hi;
        }
        if (!pass) {
            continue;
        }
        for (std::size_t a = 0; a < attrs.size(); ++a) {
            attrs[a] = global.attr(a)[i];
        }
        d.add_point(p, attrs);
    }
    return d;
}

/// Slab `r` of `n` along x of `box` (queries are split across ranks).
Box x_slab(const Box& box, int r, int n) {
    Box b = box;
    const float w = (box.upper.x - box.lower.x) / static_cast<float>(n);
    b.lower.x = box.lower.x + w * static_cast<float>(r);
    b.upper.x = r + 1 == n ? box.upper.x : box.lower.x + w * static_cast<float>(r + 1);
    return b;
}

/// Restart read box of rank r: its decomposition cell, half-open, with the
/// faces on the domain boundary opened to infinity so the cells cover every
/// particle exactly once. Both sides of an interior face use the same float
/// expression. (GridDecomp::rank_read_box can miss the particle sitting on
/// the domain's upper face when the cell arithmetic rounds below it.)
Box read_box(const GridDecomp& d, int r) {
    const int n[3] = {d.nx, d.ny, d.nz};
    const int idx[3] = {r % d.nx, (r / d.nx) % d.ny, r / (d.nx * d.ny)};
    const Vec3 ext = d.domain.extent();
    auto face = [&](int a, int k) {
        if (k == 0) {
            return -std::numeric_limits<float>::max();
        }
        if (k == n[a]) {
            return std::numeric_limits<float>::max();
        }
        return d.domain.lower[a] + ext[a] / static_cast<float>(n[a]) * static_cast<float>(k);
    };
    Box b;
    for (int a = 0; a < 3; ++a) {
        b.lower[a] = face(a, idx[a]);
        b.upper[a] = face(a, idx[a] + 1);
    }
    return b;
}

/// Data bounds rounded outward to a grid of `cells` per axis over `domain`.
/// Decompositions are resized to the data in whole cells, as a simulation
/// resizes its grid, so they do not follow single outlying particles from
/// seed to seed.
Box cell_bounds(const Box& data, const Box& domain, int cells) {
    Box b;
    for (int a = 0; a < 3; ++a) {
        const float cell = (domain.upper[a] - domain.lower[a]) / static_cast<float>(cells);
        const float lo = domain.lower[a];
        b.lower[a] = lo + cell * std::floor((data.lower[a] - lo) / cell);
        b.upper[a] = lo + cell * std::ceil((data.upper[a] - lo) / cell);
        if (b.lower[a] > data.lower[a]) {
            b.lower[a] -= cell;
        }
        if (b.upper[a] < data.upper[a]) {
            b.upper[a] += cell;
        }
    }
    return b;
}

/// The sub-box of `bounds` spanning fractions [lo, hi] of its extent on
/// every axis. Queries are placed relative to the data, so the work they
/// do does not depend on the seed.
Box sub_box(const Box& bounds, float lo, float hi) {
    Box b;
    for (int a = 0; a < 3; ++a) {
        const float ext = bounds.upper[a] - bounds.lower[a];
        b.lower[a] = bounds.lower[a] + lo * ext;
        b.upper[a] = bounds.lower[a] + hi * ext;
    }
    return b;
}

/// A filter on attribute `a` selecting the values between its q_lo and q_hi
/// quantiles, so its selectivity does not depend on the seed.
AttrFilter quantile_filter(const ParticleSet& global, std::uint32_t a, double q_lo, double q_hi) {
    std::vector<double> v(global.attr(a).begin(), global.attr(a).end());
    auto at = [&v](double q) {
        const auto k = static_cast<std::ptrdiff_t>(q * static_cast<double>(v.size() - 1));
        std::nth_element(v.begin(), v.begin() + k, v.end());
        return v[static_cast<std::size_t>(k)];
    };
    const double lo = at(q_lo);
    return AttrFilter{a, lo, at(q_hi)};
}

// ---- recording -------------------------------------------------------------

struct Span {
    const char* layer;
    int parent;  // index into the rank's span list; -1 for the op root
    std::int64_t t0;
    std::int64_t t1;
};

/// One rank's view of one operation.
struct RankSlot {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int64_t t2 = 0;
    std::vector<double> phases;  // write or read phase rows, seconds
    std::vector<double> bat;     // write: BAT build sub-stages, seconds
    std::uint64_t particles = 0;
    std::uint64_t bytes = 0;     // write: bytes written; read: file bytes read
    Digest got;
    bool ok = true;
    std::string error;
    bool reused_plan = false;
    std::uint64_t treelets_clean = 0;
    std::uint64_t treelets_written = 0;
    std::vector<Span> spans;  // traced segments only; [0] is the op root
};

const std::vector<std::string> kCounters = {
    "write.transfer_bytes",     "write.bytes_written",     "write.plan_reused",
    "write.delta_treelets_clean", "write.delta_treelets_written", "read.request_msgs",
    "read.leaf_cache_hit",      "read.leaf_cache_miss",    "service.request_msgs",
    "service.bytes_shipped",    "service.particles_served", "service.rounds",
};

struct CounterSnapshot {
    std::vector<std::uint64_t> counters;
    std::uint64_t round_count = 0;
    double round_us_sum = 0;
};

CounterSnapshot snapshot_counters() {
    auto& m = obs::MetricsRegistry::global();
    CounterSnapshot s;
    for (const std::string& name : kCounters) {
        s.counters.push_back(m.counter(name).value());
    }
    const RunningStats st = m.histogram("service.round_us").stats();
    s.round_count = st.count();
    s.round_us_sum = st.mean() * static_cast<double>(st.count());
    return s;
}

/// Minimal JSON-lines writer for the records file (numbers, plain ASCII
/// strings and arrays only).
class Json {
public:
    Json& key(const char* k) {
        sep();
        os_ << '"' << k << "\":";
        fresh_ = true;
        return *this;
    }
    Json& str(const std::string& s) {
        sep();
        os_ << '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                os_ << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                os_ << ' ';
            } else {
                os_ << c;
            }
        }
        os_ << '"';
        return *this;
    }
    template <typename T>
    Json& num(T v) {
        sep();
        if constexpr (std::is_floating_point_v<T>) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
            os_ << buf;
        } else {
            os_ << v;
        }
        return *this;
    }
    Json& boolean(bool v) {
        sep();
        os_ << (v ? "true" : "false");
        return *this;
    }
    Json& open(char c) {
        sep();
        os_ << c;
        fresh_ = true;
        return *this;
    }
    Json& close(char c) {
        os_ << c;
        fresh_ = false;
        return *this;
    }
    template <typename T>
    Json& nums(const std::vector<T>& v) {
        open('[');
        for (const T& x : v) {
            num(x);
        }
        return close(']');
    }
    /// Append a fragment built by another Json (a key/value list).
    Json& raw(const std::string& fragment) {
        if (!fragment.empty()) {
            sep();
            os_ << fragment;
        }
        return *this;
    }
    std::string line() const { return os_.str(); }

private:
    void sep() {
        if (!fresh_) {
            os_ << ',';
        }
        fresh_ = false;
    }
    std::ostringstream os_;
    bool fresh_ = true;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    fs::path workdir;
    fs::path records;
    std::size_t min_samples = 100;  // per op kind, untraced runs
};

/// State shared by the rank threads of one run. Rank r writes only
/// slots[r]; rank 0 reads every slot after the barrier that ends an op.
struct Shared {
    std::vector<RankSlot> slots;
    std::vector<std::string> lines;  // records, appended by rank 0
    std::string seg = "warm";
    bool traced = false;
    int next_op = 0;
    std::size_t plain_ops[3] = {0, 0, 0};  // ops per kind in the "plain" segment
    LeafFileCache cache{1024};
    CounterSnapshot before;
};

int kind_index(const char* kind) {
    return std::strcmp(kind, "write") == 0 ? 0 : std::strcmp(kind, "read") == 0 ? 1 : 2;
}

/// Per-op extras rank 0 adds to the record after the op (outside the timed
/// part): global oracle results and traced-only layer measurements.
struct OpExtras {
    bool ok = true;
    std::string error;
    Json extra;  // body of the record's "extra" object
    bool has_extra = false;
};

using RankBody = std::function<void(RankSlot&)>;
using Finish = std::function<void(std::vector<RankSlot>&, OpExtras&)>;

/// Run one collective operation on this rank. `body` performs the public
/// call(s), stamps slot.t1 when they return, then checks its own output.
void run_op(vmpi::Comm& comm, Shared& sh, const char* kind, int cycle, int step,
            const RankBody& body, const Finish& finish = {}) {
    const int r = comm.rank();
    RankSlot& slot = sh.slots[static_cast<std::size_t>(r)];
    if (r == 0 && sh.traced) {
        sh.before = snapshot_counters();
    }
    comm.barrier();
    // Reset only after the barrier: rank 0 reads every slot of the previous
    // op until it reaches this barrier.
    slot = RankSlot{};
    slot.t0 = now_ns();
    if (sh.traced) {
        slot.spans.push_back({"op", -1, slot.t0, 0});
    }
    try {
        body(slot);
    } catch (const std::exception& e) {
        slot.ok = false;
        slot.error = e.what();
    }
    if (slot.t1 == 0) {
        slot.t1 = now_ns();
    }
    slot.t2 = now_ns();
    if (sh.traced) {
        slot.spans[0].t1 = slot.t2;
    }
    comm.barrier();
    if (r != 0) {
        return;
    }
    OpExtras ex;
    try {
        if (finish) {
            finish(sh.slots, ex);
        }
    } catch (const std::exception& e) {
        ex.ok = false;
        ex.error = e.what();
    }
    Json j;
    j.open('{').key("type").str("op").key("seg").str(sh.seg).key("id").num(sh.next_op++);
    j.key("kind").str(kind).key("cycle").num(cycle).key("step").num(step);
    bool ok = ex.ok;
    std::string error = ex.error;
    for (const RankSlot& s : sh.slots) {
        ok = ok && s.ok;
        if (!s.ok && error.empty()) {
            error = s.error;
        }
    }
    j.key("ok").boolean(ok).key("error").str(error);
    auto per_rank = [&](const char* name, auto get) {
        j.key(name).open('[');
        for (const RankSlot& s : sh.slots) {
            j.num(get(s));
        }
        j.close(']');
    };
    per_rank("t0", [](const RankSlot& s) { return s.t0; });
    per_rank("t1", [](const RankSlot& s) { return s.t1; });
    per_rank("t2", [](const RankSlot& s) { return s.t2; });
    per_rank("particles", [](const RankSlot& s) { return s.particles; });
    per_rank("bytes", [](const RankSlot& s) { return s.bytes; });
    j.key("phases").open('[');
    for (const RankSlot& s : sh.slots) {
        j.nums(s.phases);
    }
    j.close(']');
    j.key("bat").open('[');
    for (const RankSlot& s : sh.slots) {
        j.nums(s.bat);
    }
    j.close(']');
    if (sh.traced) {
        const CounterSnapshot after = snapshot_counters();
        j.key("counters").open('{');
        for (std::size_t i = 0; i < kCounters.size(); ++i) {
            j.key(kCounters[i].c_str()).num(after.counters[i] - sh.before.counters[i]);
        }
        j.key("service.round_count").num(after.round_count - sh.before.round_count);
        j.key("service.round_us_sum").num(after.round_us_sum - sh.before.round_us_sum);
        j.close('}');
        std::uint64_t clean = 0;
        std::uint64_t written = 0;
        int reused = 0;
        for (const RankSlot& s : sh.slots) {
            clean += s.treelets_clean;
            written += s.treelets_written;
            reused += s.reused_plan ? 1 : 0;
        }
        j.key("series").open('{').key("treelets_clean").num(clean);
        j.key("treelets_written").num(written).key("ranks_reused_plan").num(reused).close('}');
        j.key("spans").open('[');
        for (std::size_t rank = 0; rank < sh.slots.size(); ++rank) {
            for (const Span& sp : sh.slots[rank].spans) {
                j.open('[').num(rank).str(sp.layer).num(sp.parent).num(sp.t0).num(sp.t1);
                j.close(']');
            }
        }
        j.close(']');
    }
    if (ex.has_extra) {
        j.key("extra").open('{').raw(ex.extra.line()).close('}');
    }
    j.close('}');
    sh.lines.push_back(j.line());
    if (sh.seg == "plain") {
        ++sh.plain_ops[kind_index(kind)];
    }
}

/// Record a child span of the op root around `fn` (traced segments only).
template <typename F>
auto traced_call(const Shared& sh, RankSlot& slot, const char* layer, F&& fn) {
    const std::int64_t t0 = sh.traced ? now_ns() : 0;
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        if (sh.traced) {
            slot.spans.push_back({layer, 0, t0, now_ns()});
        }
    } else {
        auto result = fn();
        if (sh.traced) {
            slot.spans.push_back({layer, 0, t0, now_ns()});
        }
        return result;
    }
}

/// Mark the end of the public calls and open the oracle span.
void returned(const Shared& sh, RankSlot& slot) {
    slot.t1 = now_ns();
    if (sh.traced) {
        slot.spans.push_back({"oracle", 0, slot.t1, 0});
    }
}

void oracle_done(const Shared& sh, RankSlot& slot) {
    if (sh.traced) {
        slot.spans.back().t1 = now_ns();
    }
}

void fail(RankSlot& slot, const std::string& why) {
    if (slot.ok) {
        slot.ok = false;
        slot.error = why;
    }
}

void store_write(RankSlot& slot, const WriteResult& wr, std::uint64_t particles) {
    const WritePhaseTimings& t = wr.timings;
    slot.phases = {t.gather, t.tree_build, t.scatter, t.transfer,
                   t.bat_build, t.file_write, t.metadata};
    slot.bat = {t.bat.edges, t.bat.encode, t.bat.sort, t.bat.treelets, t.bat.reorder,
                t.bat.bitmaps};
    slot.particles = particles;
    slot.bytes = wr.bytes_written;
    slot.reused_plan = wr.reused_plan;
    slot.treelets_clean = wr.delta_treelets_clean;
    slot.treelets_written = wr.delta_treelets_written;
}

void store_read(RankSlot& slot, const ReadResult& rr) {
    const ReadPhaseTimings& t = rr.timings;
    slot.phases = {t.metadata, t.request, t.serve, t.merge, t.local};
    slot.particles = rr.particles.count();
    slot.bytes = rr.bytes_read;
}

/// Every rank's digests together must equal `expected` (each input particle
/// read exactly once).
void check_union(std::vector<RankSlot>& slots, const Digest& expected, OpExtras& ex) {
    Digest all;
    for (const RankSlot& s : slots) {
        all.add(s.got);
    }
    if (!(all == expected)) {
        ex.ok = false;
        ex.error = "restart read returned " + std::to_string(all.count) + " particles, expected " +
                   std::to_string(expected.count) + " (or checksum mismatch)";
    }
}

std::uint64_t file_size_or_zero(const fs::path& p) {
    std::error_code ec;
    const auto n = fs::file_size(p, ec);
    return ec ? 0 : n;
}

/// Traced-only measurements of one data set a read reads: metadata load
/// time and size, aggregation (writer ranks per leaf, leaf balance), leaf
/// file layout overhead and open time.
void dataset_extras(const fs::path& meta_path, std::size_t bytes_per_particle, int writer_ranks,
                    Json& j) {
    const std::int64_t t0 = now_ns();
    const Metadata meta = Metadata::load(meta_path);
    const double load_ms = 1e-6 * static_cast<double>(now_ns() - t0);
    std::uint64_t max_leaf = 0;
    std::uint64_t total = 0;
    std::uint64_t file_bytes = 0;
    double open_ms = 0;
    for (const MetaLeaf& leaf : meta.leaves) {
        max_leaf = std::max(max_leaf, leaf.num_particles);
        total += leaf.num_particles;
        const fs::path p = meta_path.parent_path() / leaf.file;
        file_bytes += file_size_or_zero(p);
        const std::int64_t o0 = now_ns();
        const BatFile file(p);
        open_ms += 1e-6 * static_cast<double>(now_ns() - o0);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, meta.leaves.size()));
    j.key("metadata_load_ms").num(load_ms);
    j.key("metadata_bytes").num(file_size_or_zero(meta_path));
    j.key("leaves").num(meta.leaves.size()).key("writer_ranks").num(writer_ranks);
    j.key("leaf_max_over_mean")
        .num(total > 0 ? static_cast<double>(max_leaf) * n / static_cast<double>(total) : 0.0);
    j.key("leaf_file_bytes").num(file_bytes);
    j.key("raw_bytes").num(total * bytes_per_particle);
    j.key("bat_file_open_ms").num(open_ms / n);
}

/// Traced-only: replay queries through Dataset::query with a QueryStats.
void replay_queries(const fs::path& meta_path, const std::vector<BatQuery>& queries, Json& j) {
    Dataset ds(meta_path);
    QueryStats st;
    for (const BatQuery& q : queries) {
        ds.query(q, [](Vec3, std::span<const double>) {}, &st);
    }
    j.key("query").open('{');
    j.key("nodes_visited").num(st.shallow_nodes_visited + st.treelet_nodes_visited);
    j.key("pruned_by_box").num(st.pruned_by_box);
    j.key("pruned_by_bitmap").num(st.pruned_by_bitmap);
    j.key("points_tested").num(st.points_tested);
    j.key("points_fast_path").num(st.points_fast_path);
    j.key("points_emitted").num(st.points_emitted);
    j.close('}');
}

/// On-disk bytes of written output, by kind.
struct DiskBytes {
    std::uint64_t leaf = 0;
    std::uint64_t meta = 0;
    std::uint64_t manifest = 0;
    std::uint64_t other = 0;

    void add(const fs::path& dir) {
        for (const auto& e : fs::recursive_directory_iterator(dir)) {
            if (!e.is_regular_file()) {
                continue;
            }
            const std::string ext = e.path().extension().string();
            (ext == ".bat"         ? leaf
             : ext == ".batmeta"   ? meta
             : ext == ".batseries" ? manifest
                                   : other) += e.file_size();
        }
    }
};

void record_cycle(Shared& sh, int cycle, const DiskBytes& disk, std::uint64_t particles_written) {
    Json j;
    j.open('{').key("type").str("cycle").key("seg").str(sh.seg).key("cycle").num(cycle);
    j.key("particles_written").num(particles_written);
    j.key("leaf_bytes").num(disk.leaf).key("batmeta_bytes").num(disk.meta);
    j.key("manifest_bytes").num(disk.manifest).key("other_bytes").num(disk.other).close('}');
    sh.lines.push_back(j.line());
}

// ---- workloads -------------------------------------------------------------

class Workload {
public:
    virtual ~Workload() = default;
    /// Generate the inputs and the oracle. Runs on the main thread and is
    /// timed as setup_s.
    virtual void setup() = 0;
    /// One cycle of collective operations; every rank calls it.
    virtual void cycle(vmpi::Comm& comm, Shared& sh, int c) = 0;
};

constexpr float kWindows[] = {0.f, 0.25f, 0.5f, 1.f};
/// Grid cells per axis that decompositions are resized in.
constexpr int kCells = 32;

/// Coal Boiler injection series: full write_particles per step on a 3D
/// decomposition resized to the data bounds, then a restart read-back and
/// one DataService round on the step just written.
class BoilerDump final : public Workload {
public:
    BoilerDump(std::uint64_t seed, int nranks, fs::path dir)
        : seed_(seed), nranks_(nranks), dir_(std::move(dir)) {}

    void setup() override {
        BoilerConfig cfg;
        cfg.seed = seed_;
        cfg.particles_at_start = 64'000;
        cfg.particles_at_end = 576'000;
        for (int k = 0; k < kSteps; ++k) {
            Step s;
            s.timestep = cfg.t_start + k * (cfg.t_end - cfg.t_start) / (kSteps - 1);
            const ParticleSet global = make_boiler_particles(cfg, s.timestep);
            const Box bounds = cell_bounds(global.bounds(), cfg.domain, kCells);
            s.decomp = grid_decomp_3d(nranks_, bounds);
            s.parts = partition_particles(global, s.decomp);
            s.total = digest_of(global);
            s.count = global.count();
            // Alternate box queries and attribute-filtered slabs.
            const Box qbox = k % 2 == 0 ? sub_box(bounds, 0.3f, 0.7f) : bounds;
            const std::optional<AttrFilter> filter =
                k % 2 == 0 ? std::nullopt
                           : std::optional(quantile_filter(
                                 global, static_cast<std::uint32_t>(k % 7), 0.4, 0.7));
            for (int r = 0; r < nranks_; ++r) {
                BatQuery q;
                q.box = x_slab(qbox, r, nranks_);
                if (filter) {
                    q.attr_filters.push_back(*filter);
                }
                s.expected.push_back(brute_force(global, q));
                s.queries.push_back(std::move(q));
            }
            steps_.push_back(std::move(s));
        }
        bpp_ = steps_.front().parts.front().bytes_per_particle();
    }

    void cycle(vmpi::Comm& comm, Shared& sh, int c) override {
        const int r = comm.rank();
        DiskBytes disk;
        std::uint64_t written = 0;
        for (int k = 0; k < kSteps; ++k) {
            const Step& s = steps_[static_cast<std::size_t>(k)];
            const ParticleSet& mine = s.parts[static_cast<std::size_t>(r)];
            WriterConfig wc;
            wc.directory = dir_ / ("c" + std::to_string(c) + "_s" + std::to_string(k));
            wc.basename = "dump_t" + std::to_string(s.timestep);
            wc.tree.target_file_size = 4ull << 20;
            fs::path meta;
            run_op(
                comm, sh, "write", c, k,
                [&](RankSlot& slot) {
                    const WriteResult wr = traced_call(sh, slot, "io/writer", [&] {
                        return write_particles(comm, mine, s.decomp.rank_box(r), wc);
                    });
                    returned(sh, slot);
                    store_write(slot, wr, mine.count());
                    meta = wr.metadata_path;
                    oracle_done(sh, slot);
                });
            written += s.count;
            run_op(
                comm, sh, "read", c, k,
                [&](RankSlot& slot) {
                    ReaderConfig rc;
                    rc.cache = &sh.cache;
                    const ReadResult rr = traced_call(sh, slot, "io/reader", [&] {
                        return read_particles(comm, meta, read_box(s.decomp, r), rc);
                    });
                    returned(sh, slot);
                    store_read(slot, rr);
                    slot.got = digest_of(rr.particles);
                    oracle_done(sh, slot);
                },
                [&](std::vector<RankSlot>& slots, OpExtras& ex) {
                    check_union(slots, s.total, ex);
                    if (sh.traced) {
                        ex.has_extra = true;
                        dataset_extras(meta, bpp_, nranks_, ex.extra);
                    }
                });
            // The service's collective constructor reads the metadata; it
            // is set-up for the query round, not part of it.
            DataService service(comm, meta, nullptr, &sh.cache);
            run_op(
                comm, sh, "query", c, k,
                [&](RankSlot& slot) {
                    const ParticleSet got = traced_call(sh, slot, "io/data_service", [&] {
                        return service.query_round(s.queries[static_cast<std::size_t>(r)]);
                    });
                    returned(sh, slot);
                    slot.particles = got.count();
                    slot.got = digest_of(got);
                    if (!(slot.got == s.expected[static_cast<std::size_t>(r)])) {
                        fail(slot, "query result differs from brute force");
                    }
                    oracle_done(sh, slot);
                },
                [&](std::vector<RankSlot>&, OpExtras& ex) {
                    if (sh.traced) {
                        ex.has_extra = true;
                        replay_queries(meta, s.queries, ex.extra);
                    }
                    // Each dump is deleted after its last use, so the cost
                    // of freeing it lands evenly before every step's ops.
                    disk.add(wc.directory);
                    sh.cache.clear();
                    fs::remove_all(wc.directory);
                });
        }
        if (r == 0) {
            record_cycle(sh, c, disk, written);
        }
    }

private:
    static constexpr int kSteps = 5;
    struct Step {
        int timestep = 0;
        GridDecomp decomp;
        std::vector<ParticleSet> parts;
        Digest total;
        std::uint64_t count = 0;
        std::vector<BatQuery> queries;  // per rank
        std::vector<Digest> expected;   // per rank
    };
    std::uint64_t seed_;
    int nranks_;
    fs::path dir_;
    std::vector<Step> steps_;
    std::size_t bpp_ = 0;
};

/// Slowly evolving Coal Boiler series written through SeriesWriter (plan
/// reuse, delta treelets, keyframes). After each step: a collective
/// restart read of the newest step (delta base resolution, cold files),
/// then rank 0 opens it with SeriesReader and runs a progressive query.
class BoilerSeriesDelta final : public Workload {
public:
    BoilerSeriesDelta(std::uint64_t seed, int nranks, fs::path dir)
        : seed_(seed), nranks_(nranks), dir_(std::move(dir)) {}

    void setup() override {
        BoilerConfig cfg;
        cfg.seed = seed_;
        cfg.particles_at_start = 400'000;
        cfg.particles_at_end = 400'000;
        ParticleSet global = make_boiler_particles(cfg, 2501);
        const Box bounds = cell_bounds(global.bounds(), cfg.domain, kCells);
        decomp_ = grid_decomp_3d(nranks_, bounds);
        bpp_ = global.bytes_per_particle();
        // Hot box around the centroid: only its particles move between
        // steps (clamped to the box, so bounds and ranges stay fixed).
        Vec3 c{0, 0, 0};
        for (std::size_t i = 0; i < global.count(); ++i) {
            const Vec3 p = global.position(i);
            c = {c.x + p.x, c.y + p.y, c.z + p.z};
        }
        const float inv = 1.f / static_cast<float>(global.count());
        c = {c.x * inv, c.y * inv, c.z * inv};
        Box hot;
        for (int a = 0; a < 3; ++a) {
            const float half = 0.1f * (bounds.upper[a] - bounds.lower[a]);
            hot.lower[a] = c[a] - half;
            hot.upper[a] = c[a] + half;
        }
        std::vector<std::uint32_t> hot_ids;
        for (std::size_t i = 0; i < global.count(); ++i) {
            if (hot.contains(global.position(i))) {
                hot_ids.push_back(static_cast<std::uint32_t>(i));
            }
        }
        Pcg32 rng(seed_, 13);
        query_.box = sub_box(bounds, 0.2f, 0.8f);
        for (int k = 0; k < kSteps; ++k) {
            if (k > 0) {
                for (const std::uint32_t i : hot_ids) {
                    Vec3 p = global.position(i);
                    for (int a = 0; a < 3; ++a) {
                        const float amp = 0.04f * (hot.upper[a] - hot.lower[a]);
                        p[a] = std::clamp(p[a] + amp * rng.uniform(-1.f, 1.f), hot.lower[a],
                                          hot.upper[a]);
                    }
                    global.set_position(i, p);
                }
            }
            Step s;
            s.parts = partition_particles(global, decomp_);
            s.total = digest_of(global);
            s.query_expected = brute_force(global, query_);
            steps_.push_back(std::move(s));
        }
        count_ = global.count();
    }

    void cycle(vmpi::Comm& comm, Shared& sh, int c) override {
        const int r = comm.rank();
        const fs::path dir = dir_ / ("series_c" + std::to_string(c));
        WriterConfig base;
        base.directory = dir;
        base.basename = "boiler";
        base.tree.target_file_size = 2ull << 20;
        base.delta.keyframe_interval = 3;
        SeriesWriter writer(base);
        std::uint64_t written = 0;
        for (int k = 0; k < kSteps; ++k) {
            const Step& s = steps_[static_cast<std::size_t>(k)];
            const ParticleSet& mine = s.parts[static_cast<std::size_t>(r)];
            fs::path meta;
            run_op(
                comm, sh, "write", c, k,
                [&](RankSlot& slot) {
                    const WriteResult wr = traced_call(sh, slot, "io/series", [&] {
                        WriteResult res =
                            writer.write_timestep(comm, k, mine, decomp_.rank_box(r));
                        writer.finalize(comm);
                        return res;
                    });
                    returned(sh, slot);
                    store_write(slot, wr, mine.count());
                    meta = wr.metadata_path;
                    oracle_done(sh, slot);
                },
                [&](std::vector<RankSlot>&, OpExtras& ex) {
                    if (sh.traced) {
                        ex.has_extra = true;
                        ex.extra.key("manifest_bytes").num(file_size_or_zero(writer.manifest_path()));
                    }
                });
            written += count_;
            run_op(
                comm, sh, "read", c, k,
                [&](RankSlot& slot) {
                    ReaderConfig rc;
                    rc.cache = &sh.cache;
                    const ReadResult rr = traced_call(sh, slot, "io/reader", [&] {
                        return read_particles(comm, meta, read_box(decomp_, r), rc);
                    });
                    returned(sh, slot);
                    store_read(slot, rr);
                    slot.got = digest_of(rr.particles);
                    oracle_done(sh, slot);
                },
                [&](std::vector<RankSlot>& slots, OpExtras& ex) {
                    check_union(slots, s.total, ex);
                    if (sh.traced) {
                        ex.has_extra = true;
                        dataset_extras(meta, bpp_, nranks_, ex.extra);
                    }
                });
            run_op(
                comm, sh, "query", c, k,
                [&](RankSlot& slot) {
                    if (r != 0) {
                        return;
                    }
                    Dataset ds = traced_call(sh, slot, "io/series_reader", [&] {
                        const SeriesReader reader(writer.manifest_path());
                        return reader.open(reader.num_timesteps() - 1);
                    });
                    ParticleSet got(ds.attr_names());
                    traced_call(sh, slot, "core/bat_query", [&] {
                        for (int w = 0; w < 3; ++w) {
                            BatQuery q = query_;
                            q.quality_lo = kWindows[w];
                            q.quality_hi = kWindows[w + 1];
                            ds.query(q, [&got](Vec3 p, std::span<const double> attrs) {
                                got.push_back(p, attrs);
                            });
                        }
                    });
                    returned(sh, slot);
                    slot.particles = got.count();
                    slot.got = digest_of(got);
                    if (!(slot.got == s.query_expected)) {
                        fail(slot, "progressive windows differ from the brute-force result");
                    }
                    oracle_done(sh, slot);
                },
                [&](std::vector<RankSlot>&, OpExtras& ex) {
                    if (sh.traced) {
                        ex.has_extra = true;
                        replay_queries(meta, {query_}, ex.extra);
                    }
                });
        }
        comm.barrier();
        if (r == 0) {
            DiskBytes disk;
            disk.add(dir);
            record_cycle(sh, c, disk, written);
            sh.cache.clear();
            fs::remove_all(dir);
        }
        comm.barrier();
    }

private:
    static constexpr int kSteps = 6;
    struct Step {
        std::vector<ParticleSet> parts;
        Digest total;
        Digest query_expected;
    };
    std::uint64_t seed_;
    int nranks_;
    fs::path dir_;
    GridDecomp decomp_;
    BatQuery query_;
    std::uint64_t count_ = 0;
    std::size_t bpp_ = 0;
    std::vector<Step> steps_;
};

// ---- main ------------------------------------------------------------------

/// Number of CPUs this process may run on.
int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return CPU_COUNT(&set);
    }
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}


Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--workdir") {
            a.workdir = v;
        } else if (k == "--records") {
            a.records = v;
        } else if (k == "--min-samples") {
            a.min_samples = std::stoull(v);
        } else {
            throw std::invalid_argument("unknown argument " + k);
        }
    }
    if (a.workload.empty() || a.workdir.empty() || a.records.empty()) {
        throw std::invalid_argument(
            "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
            "--workdir DIR --records FILE [--min-samples N]");
    }
    return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, int nranks) {
    if (a.workload == "boiler-dump") {
        return std::make_unique<BoilerDump>(a.seed, nranks, a.workdir);
    }
    if (a.workload == "boiler-series-delta") {
        return std::make_unique<BoilerSeriesDelta>(a.seed, nranks, a.workdir);
    }
    throw std::invalid_argument("unknown workload " + a.workload);
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    try {
        args = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    // Thread budget: rank threads plus pool workers (none) within nproc.
    // One CPU stays free for the OS and the calling process: waiting ranks
    // spin, so a rank preempted by anything else stalls the collective.
    const int nproc = usable_cpus();
    const int nranks = std::min(4, nproc - 1);
    constexpr int kPoolWorkers = 0;
    if (nranks < 2 || nranks + kPoolWorkers > nproc) {
        std::fprintf(stderr, "perfbench: needs at least 3 usable CPUs (have %d)\n", nproc);
        return 3;
    }
    try {
        fs::create_directories(args.workdir);
        std::unique_ptr<Workload> workload = make_workload(args, nranks);

        Shared sh;
        sh.slots.resize(static_cast<std::size_t>(nranks));
        {
            Json j;
            j.open('{').key("type").str("run").key("workload").str(args.workload);
            j.key("seed").num(args.seed).key("seconds").num(args.seconds);
            j.key("trace").boolean(args.trace).key("nproc").num(nproc);
            j.key("rank_threads").num(nranks).key("pool_workers").num(kPoolWorkers);
            j.key("simd").str(simd::level_name(simd::active_level()));
            j.key("build_type").str(PERFBENCH_BUILD_TYPE).close('}');
            sh.lines.push_back(j.line());
        }

        {
            const std::int64_t t0 = now_ns();
            workload->setup();
            Json j;
            j.open('{').key("type").str("setup").key("seconds").num(seconds_since(t0));
            sh.lines.push_back(j.close('}').line());
        }

        // Segments: one warm-up cycle, then whole cycles until the segment's
        // time is spent (and, untraced, every op kind has min_samples).
        struct Segment {
            const char* name;
            bool traced;
            double seconds;
            std::size_t min_samples;
        };
        std::vector<Segment> segments = {{"warm", false, 0.0, 0}};
        if (args.trace) {
            segments.push_back({"plain", false, args.seconds / 2, 0});
            segments.push_back({"traced", true, args.seconds / 2, 0});
        } else {
            segments.push_back({"plain", false, args.seconds, args.min_samples});
        }
        // Stop before run.py's per-process timeout (about 20 s) kills the
        // process; a run that is cut short fails the sample-count check
        // instead.
        constexpr double kHardLimitS = 12.0;
        const std::int64_t run_start = now_ns();
        vmpi::Runtime::run(nranks, [&](vmpi::Comm& comm) {
            int cycle = 0;
            for (const Segment& seg : segments) {
                if (comm.rank() == 0) {
                    sh.seg = seg.name;
                    sh.traced = seg.traced;
                }
                comm.barrier();
                const std::int64_t seg_start = now_ns();
                for (;;) {
                    workload->cycle(comm, sh, cycle++);
                    vmpi::Bytes go(1);
                    if (comm.rank() == 0) {
                        const bool need = seconds_since(seg_start) < seg.seconds ||
                                          std::any_of(std::begin(sh.plain_ops),
                                                      std::end(sh.plain_ops), [&](std::size_t n) {
                                                          return n < seg.min_samples;
                                                      });
                        go[0] = std::byte{need && seconds_since(run_start) < kHardLimitS};
                    }
                    go = comm.bcast(std::move(go), 0);
                    if (go[0] == std::byte{0}) {
                        break;
                    }
                }
            }
        });

        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        Json j;
        j.open('{').key("type").str("end").key("peak_rss_kb").num(ru.ru_maxrss);
        j.key("measure_s").num(seconds_since(run_start)).close('}');
        sh.lines.push_back(j.line());

        std::FILE* f = std::fopen(args.records.c_str(), "w");
        if (f == nullptr) {
            throw std::runtime_error("cannot write " + args.records.string());
        }
        for (const std::string& line : sh.lines) {
            std::fprintf(f, "%s\n", line.c_str());
        }
        std::fclose(f);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
