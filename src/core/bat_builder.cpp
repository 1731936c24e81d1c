// build_bat stages, in order: attribute ranges/edges, Morton encode, the
// subprefix bucket pass (the global steps, on the aggregator; a delta
// build then keys and skips its unchanged treelets); then per treelet-range
// job the in-bucket Morton sort, treelet k-d builds, reorder into layout
// order and bitmaps; then the shallow tree. Each is a bat.* phase span.
// The bucket pass (util/radix_sort) buckets by the shallow-tree subprefix,
// so the non-empty buckets are the treelets' particle ranges and their
// subprefixes are the Karras tree's input before any bucket is sorted.

#include "core/bat_builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>

#include "core/karras.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/morton.hpp"
#include "util/radix_sort.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bat {

// The binning kernels in util/simd.hpp are specialized for this bin count.
static_assert(kBitmapBins == simd::kBinCount);

int bitmap_bin(double v, double lo, double hi) {
    if (hi <= lo) {
        return 0;
    }
    const double t = (v - lo) / (hi - lo);
    const int bin = static_cast<int>(t * kBitmapBins);
    return std::clamp(bin, 0, kBitmapBins - 1);
}

std::uint32_t bitmap_for_range(double lo, double hi, double range_lo, double range_hi) {
    if (hi < range_lo || lo > range_hi) {
        return 0;
    }
    if (range_hi <= range_lo) {
        // Degenerate attribute range: everything lives in bin 0.
        return 1u;
    }
    const int b0 = bitmap_bin(std::max(lo, range_lo), range_lo, range_hi);
    const int b1 = bitmap_bin(std::min(hi, range_hi), range_lo, range_hi);
    std::uint32_t bits = 0;
    for (int b = b0; b <= b1; ++b) {
        bits |= 1u << b;
    }
    return bits;
}

BinEdges equal_width_edges(double lo, double hi) {
    BinEdges edges(kBitmapBins + 1);
    const double width = hi > lo ? (hi - lo) / kBitmapBins : 0.0;
    for (int b = 0; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] = lo + b * width;
    }
    edges.back() = hi;  // avoid rounding the last edge below the max
    return edges;
}

BinEdges equal_depth_edges(std::span<const double> values, std::size_t max_sample) {
    if (values.empty()) {
        return equal_width_edges(0.0, 0.0);
    }
    const std::size_t stride = values.size() > max_sample
                                   ? (values.size() + max_sample - 1) / max_sample
                                   : 1;
    std::vector<double> sample;
    sample.reserve(values.size() / stride + 1);
    for (std::size_t i = 0; i < values.size(); i += stride) {
        sample.push_back(values[i]);
    }
    // Constant input (and the single-sample case): every quantile is the
    // same value, so skip selection entirely. minmax_f64 canonicalizes
    // -0.0 to +0.0 identically in every dispatch tier.
    double lo = 0.0;
    double hi = 0.0;
    simd::minmax_f64(sample.data(), sample.size(), &lo, &hi);
    if (lo == hi) {
        return equal_width_edges(lo, hi);
    }
    // The edges only need the 33 quantile order statistics, not a fully
    // sorted sample: select them in ascending order with nth_element, each
    // selection restricted to the suffix the previous one partitioned.
    std::array<std::size_t, kBitmapBins + 1> wanted;
    for (int b = 0; b <= kBitmapBins; ++b) {
        wanted[static_cast<std::size_t>(b)] = std::min(
            sample.size() - 1, static_cast<std::size_t>(b) * sample.size() / kBitmapBins);
    }
    std::size_t prev = 0;
    bool first = true;
    for (const std::size_t idx : wanted) {
        if (!first && idx <= prev) {
            continue;  // duplicate order statistic, already in place
        }
        const auto begin = first ? std::ptrdiff_t{0} : static_cast<std::ptrdiff_t>(prev) + 1;
        std::nth_element(sample.begin() + begin,
                         sample.begin() + static_cast<std::ptrdiff_t>(idx), sample.end());
        prev = idx;
        first = false;
    }
    BinEdges edges(kBitmapBins + 1);
    for (int b = 0; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] = sample[wanted[static_cast<std::size_t>(b)]];
    }
    edges.front() = sample.front();
    edges.back() = sample.back();
    // Quantiles of low-cardinality data can repeat; keep edges monotone.
    for (int b = 1; b <= kBitmapBins; ++b) {
        edges[static_cast<std::size_t>(b)] =
            std::max(edges[static_cast<std::size_t>(b)],
                     edges[static_cast<std::size_t>(b - 1)]);
    }
    return edges;
}

int bin_of(double v, const BinEdges& edges) {
    BAT_CHECK(edges.size() == kBitmapBins + 1);
    // First bin whose upper edge exceeds v; degenerate (empty) bins are
    // skipped by upper_bound's semantics.
    const auto it = std::upper_bound(edges.begin() + 1, edges.end() - 1, v);
    return static_cast<int>(it - (edges.begin() + 1));
}

std::uint32_t bitmap_for_range(double lo, double hi, const BinEdges& edges) {
    BAT_CHECK(edges.size() == kBitmapBins + 1);
    if (hi < edges.front() || lo > edges.back()) {
        return 0;
    }
    const int b0 = bin_of(std::max(lo, edges.front()), edges);
    const int b1 = bin_of(std::min(hi, edges.back()), edges);
    std::uint32_t bits = 0;
    for (int b = b0; b <= b1; ++b) {
        bits |= 1u << b;
    }
    return bits;
}

std::size_t BatData::num_particles() const {
    std::size_t n = 0;
    for (const Treelet& t : treelets) {
        n += t.num_particles;
    }
    return n;
}

std::uint32_t BatData::root_bitmap(std::size_t a) const {
    BAT_CHECK(a < num_attrs());
    if (shallow_nodes.empty()) {
        return 0;
    }
    return shallow_bitmaps[a];  // node 0 is the shallow root
}

namespace {

/// One particle position plus its Morton rank, the treelet builds' working
/// layout: the k-d recursion permutes these 16-byte records in place, so
/// every median select, bounds scan, and LOD swap touches contiguous
/// cache-resident memory instead of gathering through an index indirection.
/// `rank` starts as the identity; after the build, the record sequence IS
/// the final layout and rank recovers the permutation.
struct PosRecord {
    float p[3];
    std::uint32_t rank;
};
static_assert(sizeof(PosRecord) == 16);

/// Working state shared by the treelet builds of one job.
struct BuildContext {
    const BatConfig& config;
    std::span<PosRecord> recs;  // Morton-ordered, permuted by treelet builds
};

/// Tight bounds of the ordered range [lo, hi). The records are contiguous,
/// so this is a strided vector min/max (simd::minmax_pos4 canonicalizes
/// -0.0 identically in every dispatch tier).
Box range_bounds(const BuildContext& ctx, std::uint32_t lo, std::uint32_t hi) {
    BAT_CHECK(hi > lo);
    float mn[3];
    float mx[3];
    simd::minmax_pos4(ctx.recs[lo].p, hi - lo, mn, mx);
    Box b;
    b.lower = {mn[0], mn[1], mn[2]};
    b.upper = {mx[0], mx[1], mx[2]};
    return b;
}

/// Stratified sampling of `k` LOD particles from the ordered (spatially
/// coherent) range [lo, hi): one sample per stratum, swapped to the front
/// of the range (paper §III-C2 — subsets are taken, never duplicated).
void sample_lod(BuildContext& ctx, std::uint32_t lo, std::uint32_t hi, std::uint32_t k,
                Pcg32& rng) {
    const std::uint64_t n = hi - lo;
    for (std::uint32_t j = 0; j < k; ++j) {
        const auto s0 = static_cast<std::uint32_t>(lo + j * n / k);
        const auto s1 = static_cast<std::uint32_t>(lo + (j + 1) * n / k);
        const std::uint32_t begin = std::max(s0, lo + j);
        BAT_CHECK(begin < s1);
        const std::uint32_t pick = begin + rng.next_bounded(s1 - begin);
        std::swap(ctx.recs[lo + j], ctx.recs[pick]);
    }
}

struct TreeletBuilder {
    BuildContext& ctx;
    Treelet& treelet;
    std::uint32_t base;  // the treelet's first record
    Pcg32 rng;

    /// Build the node over ordered range [lo, hi) at `depth`; returns the
    /// node's index. Preorder: the left child immediately follows.
    std::int32_t build(std::uint32_t lo, std::uint32_t hi, int depth) {
        const auto index = static_cast<std::int32_t>(treelet.nodes.size());
        treelet.nodes.push_back(TreeletNode{});
        treelet.max_depth = std::max(treelet.max_depth, depth);
        const std::uint32_t n = hi - lo;
        TreeletNode node;
        node.start = lo - base;
        node.count = n;

        // Leaf: small enough, or too small to both sample LOD particles and
        // still feed two children.
        const auto leaf_limit = static_cast<std::uint32_t>(ctx.config.max_leaf_size);
        const auto lod = static_cast<std::uint32_t>(ctx.config.lod_per_inner);
        if (n <= leaf_limit || n < lod + 2) {
            node.own_count = n;
            node.right_child = -1;
            treelet.nodes[static_cast<std::size_t>(index)] = node;
            return index;
        }

        // Inner node: set aside the LOD particles, then median-split the
        // remainder along the longest axis of their bounds.
        const std::uint32_t k = std::min(lod, n - 2);
        sample_lod(ctx, lo, hi, k, rng);
        node.own_count = k;

        const std::uint32_t rest_lo = lo + k;
        const Box rest_bounds = range_bounds(ctx, rest_lo, hi);
        const int axis = rest_bounds.longest_axis();
        const std::uint32_t mid = rest_lo + (hi - rest_lo) / 2;
        std::nth_element(ctx.recs.begin() + rest_lo, ctx.recs.begin() + mid,
                         ctx.recs.begin() + hi,
                         [axis](const PosRecord& a, const PosRecord& b) {
                             return a.p[axis] < b.p[axis];
                         });
        node.axis = static_cast<std::uint8_t>(axis);
        node.split = ctx.recs[mid].p[axis];

        const std::int32_t left = build(rest_lo, mid, depth + 1);
        BAT_CHECK(left == index + 1);
        node.right_child = build(mid, hi, depth + 1);
        treelet.nodes[static_cast<std::size_t>(index)] = node;
        return index;
    }
};

/// Particle columns as raw bytes: interleaved xyz (12 bytes a row) and one
/// 8-byte column per attribute. Rows move with memcpy, so a job reads its
/// particles straight out of the job message and writes its results
/// straight into the result message, where columns need not be aligned;
/// a local job points the same views at ParticleSet arrays.
template <typename Byte>
struct ColumnsOf {
    Byte* pos = nullptr;
    std::vector<Byte*> attrs;

    ColumnsOf rows_from(std::size_t row) const {
        ColumnsOf c{pos + 12 * row, attrs};
        for (Byte*& a : c.attrs) {
            a += 8 * row;
        }
        return c;
    }
};
using SrcColumns = ColumnsOf<const std::byte>;
using DstColumns = ColumnsOf<std::byte>;

SrcColumns columns_of(const ParticleSet& set) {
    SrcColumns c{reinterpret_cast<const std::byte*>(set.positions().data()), {}};
    for (std::size_t a = 0; a < set.num_attrs(); ++a) {
        c.attrs.push_back(reinterpret_cast<const std::byte*>(set.attr(a).data()));
    }
    return c;
}

SrcColumns read_only(const DstColumns& c) {
    return SrcColumns{c.pos, {c.attrs.begin(), c.attrs.end()}};
}

DstColumns columns_of(ParticleSet& set) {
    DstColumns c{reinterpret_cast<std::byte*>(set.positions_mut().data()), {}};
    for (std::size_t a = 0; a < set.num_attrs(); ++a) {
        c.attrs.push_back(reinterpret_cast<std::byte*>(set.attr_mut(a).data()));
    }
    return c;
}

/// Columns of the ParticleSet wire payload (ParticleSet::serialize) that
/// starts at r's position; checks its size and moves r past it.
template <typename Byte>
ColumnsOf<Byte> wire_columns(std::span<Byte> bytes, BufferReader& r, std::size_t count,
                             std::size_t nattrs) {
    BAT_CHECK_MSG(r.read<std::uint64_t>() == count, "particle payload count mismatch");
    BAT_CHECK_MSG(r.read<std::uint32_t>() == nattrs, "particle payload schema mismatch");
    for (std::size_t a = 0; a < nattrs; ++a) {
        r.read_string();
    }
    BAT_CHECK_MSG(count <= r.remaining() / (12 + 8 * nattrs), "particle payload overruns");
    ColumnsOf<Byte> c{bytes.data() + r.pos(), {}};
    for (std::size_t a = 0; a < nattrs; ++a) {
        c.attrs.push_back(c.pos + 12 * count + 8 * count * a);
    }
    r.skip((12 + 8 * nattrs) * count);
    return c;
}

/// Compute per-node bitmaps of attribute `a` for one treelet whose values
/// (in layout order) start at `values`. Nodes are preorder so children
/// always have larger indices: a reverse sweep sees children before parents.
/// Every particle is owned by exactly one node (LOD samples by their inner
/// node, the rest by leaves), so the bins of the treelet's whole contiguous
/// attribute span are computed once with the vectorized edge-compare kernel
/// and the per-node OR just consumes the precomputed u8 bins. The values
/// are binned in place when 8-byte aligned (ParticleSet arrays always are;
/// a reply buffer holds the doubles its job memcpy'd there), else through a
/// small aligned copy.
void compute_treelet_bitmaps(Treelet& treelet, std::size_t a, std::size_t nattrs,
                             const std::byte* values, const BinEdges& edges,
                             std::vector<std::uint8_t>& bins) {
    bins.resize(treelet.num_particles);
    if (reinterpret_cast<std::uintptr_t>(values) % alignof(double) == 0) {
        simd::bin_values_batch(reinterpret_cast<const double*>(values), treelet.num_particles,
                               edges.data(), bins.data());
    } else {
        constexpr std::size_t kChunk = 512;
        double chunk[kChunk];
        for (std::size_t i = 0; i < treelet.num_particles; i += kChunk) {
            const std::size_t len = std::min<std::size_t>(kChunk, treelet.num_particles - i);
            std::memcpy(chunk, values + 8 * i, 8 * len);
            simd::bin_values_batch(chunk, len, edges.data(), bins.data() + i);
        }
    }
    for (std::size_t i = treelet.nodes.size(); i-- > 0;) {
        const TreeletNode& node = treelet.nodes[i];
        // Bits of the node's own points (all points for leaves, the LOD
        // samples for inner nodes), then the children's OR.
        std::uint32_t bm = 0;
        for (std::uint32_t p = node.start; p < node.start + node.own_count; ++p) {
            bm |= 1u << bins[p];
        }
        if (!node.is_leaf()) {
            const std::size_t l = i + 1;
            const auto r = static_cast<std::size_t>(node.right_child);
            bm |= treelet.bitmaps[l * nattrs + a] | treelet.bitmaps[r * nattrs + a];
        }
        treelet.bitmaps[i * nattrs + a] = bm;
    }
}

/// One step of the key's word-wise multiply-xorshift mix.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 29);
}

/// What a treelet's build reads besides its rows: its global treelet index
/// (the LOD seed), its point count and the build parameters. The bin edges
/// are left out: bitmaps are compared, or skipped only while the edges
/// stay put (see BatBuild).
std::uint64_t key_salt(const BatConfig& config, std::uint64_t global_index,
                       std::uint32_t num_points, std::size_t nattrs) {
    std::uint64_t h = mix(0xcbf29ce484222325ull, config.seed);
    h = mix(h, static_cast<std::uint64_t>(config.lod_per_inner) << 32 |
                   static_cast<std::uint32_t>(config.max_leaf_size));
    h = mix(h, global_index << 32 | num_points);
    return mix(h, nattrs);
}

/// Hash of each of the `count` rows of `src`: its position, then its
/// attribute values. Column by column, so every column streams once and
/// the rows' mix chains run side by side.
std::vector<std::uint64_t> row_hashes(const SrcColumns& src, std::size_t count) {
    std::vector<std::uint64_t> h(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t xy;
        std::uint32_t z;
        std::memcpy(&xy, src.pos + 12 * i, 8);
        std::memcpy(&z, src.pos + 12 * i + 8, 4);
        h[i] = mix(mix(0x84222325cbf29ce4ull, xy), z);
    }
    for (const std::byte* attr : src.attrs) {
        for (std::size_t i = 0; i < count; ++i) {
            std::uint64_t v;
            std::memcpy(&v, attr + 8 * i, 8);
            h[i] = mix(h[i], v);
        }
    }
    return h;
}

/// Key of one treelet's build input (Treelet::key): `hash_of(i)` is the
/// row hash of its i-th of `n` rows in in-bucket Morton order. The key is
/// never persisted and only meets keys of this same code, so it mixes in
/// four interleaved lanes rather than one serial chain.
template <typename HashOf>
std::uint64_t treelet_key(std::size_t n, HashOf&& hash_of, std::uint64_t salt) {
    std::uint64_t h[4] = {salt, salt + 1, salt + 2, salt + 3};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {  // row i goes to lane i % 4
        h[0] = mix(h[0], hash_of(i));
        h[1] = mix(h[1], hash_of(i + 1));
        h[2] = mix(h[2], hash_of(i + 2));
        h[3] = mix(h[3], hash_of(i + 3));
    }
    for (; i < n; ++i) {
        h[i % 4] = mix(h[i % 4], hash_of(i));
    }
    return mix(mix(mix(mix(salt, h[0]), h[1]), h[2]), h[3]);
}

/// One treelet-range job: a contiguous run of subprefix buckets, built from
/// `src` into `dst`. A delta build's output holds rows only for the
/// buckets it builds, so a bucket's first output row is `work`, not its
/// first layout row.
struct RangeJob {
    std::span<KeyIndex> pairs;                   // bucket order; index = src row
    std::span<const std::uint32_t> begin;        // bucket offsets into the
                                                 // leaf (buckets + 1)
    std::span<const std::uint32_t> group_begin;  // global treelet index of each
                                                 // bucket's first treelet (+ end)
    std::span<const std::uint32_t> work;         // each bucket's first output
                                                 // row (+ end)
    SrcColumns src;
    DstColumns dst;                              // the output's row 0
    std::size_t first_row = 0;                   // the job's first layout row
    std::span<Treelet> treelets;                 // this job's treelets
    bool keyed = false;                          // key the treelets built

    std::size_t num_buckets() const { return begin.size() - 1; }

    /// The job over buckets [k0, k1) of this one.
    RangeJob slice(std::size_t k0, std::size_t k1) const {
        RangeJob sub = *this;
        const std::size_t at = begin[k0] - begin[0];
        sub.pairs = pairs.subspan(at, begin[k1] - begin[k0]);
        sub.begin = begin.subspan(k0, k1 - k0 + 1);
        sub.group_begin = group_begin.subspan(k0, k1 - k0 + 1);
        sub.work = work.subspan(k0, k1 - k0 + 1);
        sub.first_row = first_row + at;
        sub.treelets = treelets.subspan(group_begin[k0] - group_begin[0],
                                        group_begin[k1] - group_begin[k0]);
        return sub;
    }

    /// The treelets of bucket k.
    std::span<Treelet> bucket_treelets(std::size_t k) const {
        return treelets.subspan(group_begin[k] - group_begin[0],
                                group_begin[k + 1] - group_begin[k]);
    }
    bool bucket_skipped(std::size_t k) const {
        const std::span<Treelet> ts = bucket_treelets(k);
        return std::all_of(ts.begin(), ts.end(), [](const Treelet& t) { return t.skipped; });
    }

    /// Stable in-bucket sort of bucket k (a no-op on a sorted bucket);
    /// `tmp` is scratch.
    void sort(std::size_t k, std::vector<KeyIndex>& tmp) const {
        KeyIndex* a = pairs.data() + (begin[k] - begin[0]);
        const std::size_t n = begin[k + 1] - begin[k];
        const auto by_key = [](const KeyIndex& x, const KeyIndex& y) { return x.key < y.key; };
        if (!std::is_sorted(a, a + n, by_key)) {
            tmp.resize(std::max(tmp.size(), n));
            sort_bucket(a, tmp.data(), n);
        }
    }

    /// Split sorted bucket k into its treelets (subprefixes longer than the
    /// bucket field split a bucket): sets their first_particle, row and
    /// num_particles and calls fn(treelet, lo, hi) with job-relative pairs.
    template <typename Fn>
    void split(std::size_t k, int subprefix_bits, Fn&& fn) const {
        const int group_shift = kMortonBits - subprefix_bits;
        const std::span<Treelet> ts = bucket_treelets(k);
        const std::uint32_t lo = begin[k] - begin[0];
        const std::uint32_t hi = begin[k + 1] - begin[0];
        std::size_t t = 0;
        auto emit = [&](std::uint32_t a, std::uint32_t b) {
            BAT_CHECK_MSG(t < ts.size(), "bucket " << k << " holds too many treelets");
            Treelet& treelet = ts[t++];
            treelet.first_particle = static_cast<std::uint32_t>(first_row + a);
            treelet.row = work[k] + (a - lo);
            treelet.num_particles = b - a;
            fn(treelet, a, b);
        };
        std::uint32_t start = lo;
        for (std::uint32_t i = lo + 1; i < hi; ++i) {
            if ((pairs[i].key >> group_shift) != (pairs[i - 1].key >> group_shift)) {
                emit(start, i);
                start = i;
            }
        }
        emit(start, hi);
        BAT_CHECK_MSG(t == ts.size(), "bucket " << k << " holds too few treelets");
    }

    std::uint64_t global_index(const Treelet& t) const {
        return group_begin[0] + static_cast<std::uint64_t>(&t - treelets.data());
    }
};

double* accum_into(BatBuildTimings* timings, double BatBuildTimings::*field) {
    return timings != nullptr ? &(timings->*field) : nullptr;
}

/// Run one job serially: in-bucket sort, treelet builds, reorder into
/// layout order, bitmaps and (if the job is keyed) keys, over the treelets
/// not skipped. `config` carries the effective subprefix length; a bucket
/// holds one treelet per distinct subprefix.
void run_range(const RangeJob& job, const BatConfig& config, std::span<const BinEdges> edges,
               BatBuildTimings* timings) {
    auto accum = [timings](double BatBuildTimings::*field) {
        return accum_into(timings, field);
    };
    const std::size_t nb = job.num_buckets();
    const std::size_t m = job.work[nb] - job.work[0];  // the job's output rows
    if (m == 0) {
        return;
    }
    std::vector<std::size_t> live;  // buckets with a treelet to build
    for (std::size_t k = 0; k < nb; ++k) {
        if (!job.bucket_skipped(k)) {
            live.push_back(k);
        }
    }
    {
        obs::PhaseSpan span("bat.sort", accum(&BatBuildTimings::sort));
        std::vector<KeyIndex> tmp;
        for (const std::size_t k : live) {
            job.sort(k, tmp);
        }
    }
    // The treelets to build: job-relative pairs [lo, hi), which become the
    // job's output rows from out = row - work[0] on.
    struct Rows {
        Treelet* treelet;
        std::uint32_t lo;
        std::uint32_t hi;
        std::uint32_t out;
    };
    std::vector<Rows> todo;
    for (const std::size_t k : live) {
        job.split(k, config.subprefix_bits, [&](Treelet& t, std::uint32_t lo, std::uint32_t hi) {
            if (!t.skipped) {
                todo.push_back(Rows{&t, lo, hi, t.row - job.work[0]});
            }
        });
    }

    // Gather positions into Morton order as 16-byte {x, y, z, rank}
    // records, one per output row: every later access (treelet bounds, k-d
    // medians, LOD swaps) then runs over contiguous memory. The builds
    // permute the records in place; afterwards the record sequence is the
    // layout order and recs[i].rank names the sorted pair it came from.
    obs::PhaseSpan treelet_span("bat.treelets", accum(&BatBuildTimings::treelets));
    std::vector<PosRecord> recs(m);
    for (const Rows& r : todo) {
        for (std::uint32_t i = r.lo; i < r.hi; ++i) {
            PosRecord& rec = recs[r.out + (i - r.lo)];
            std::memcpy(rec.p, job.src.pos + 12 * std::size_t{job.pairs[i].index}, 12);
            rec.rank = i;
        }
    }
    BuildContext ctx{config, recs};
    for (const Rows& r : todo) {
        const std::uint32_t end = r.out + (r.hi - r.lo);
        Treelet& treelet = *r.treelet;
        treelet.bounds = range_bounds(ctx, r.out, end);
        TreeletBuilder builder{ctx, treelet, r.out,
                               Pcg32(mix_seed(config.seed, job.global_index(treelet)))};
        builder.build(r.out, end, 0);
    }
    treelet_span.close();

    const DstColumns out = job.dst.rows_from(job.work[0]);
    {
        // Positions come straight out of the permuted records; attributes
        // gather through the composed permutation src_row[i].
        obs::PhaseSpan span("bat.reorder", accum(&BatBuildTimings::reorder));
        std::vector<std::uint32_t> src_row(m);
        for (const Rows& r : todo) {
            for (std::uint32_t i = r.out; i < r.out + (r.hi - r.lo); ++i) {
                src_row[i] = job.pairs[recs[i].rank].index;
                std::memcpy(out.pos + 12 * std::size_t{i}, recs[i].p, 12);
            }
        }
        for (std::size_t a = 0; a < job.src.attrs.size(); ++a) {
            const std::byte* from = job.src.attrs[a];
            std::byte* to = out.attrs[a];
            for (const Rows& r : todo) {
                for (std::uint32_t i = r.out; i < r.out + (r.hi - r.lo); ++i) {
                    std::memcpy(to + 8 * std::size_t{i}, from + 8 * std::size_t{src_row[i]}, 8);
                }
            }
        }
    }

    obs::PhaseSpan span("bat.bitmaps", accum(&BatBuildTimings::bitmaps));
    const std::size_t nattrs = edges.size();
    std::vector<std::uint8_t> bins;
    std::vector<std::uint64_t> in_order;
    for (const Rows& r : todo) {
        Treelet& treelet = *r.treelet;
        const DstColumns rows = out.rows_from(r.out);
        treelet.bitmaps.assign(treelet.nodes.size() * nattrs, 0);
        for (std::size_t a = 0; a < nattrs; ++a) {
            compute_treelet_bitmaps(treelet, a, nattrs, rows.attrs[a], edges[a], bins);
        }
        if (job.keyed && treelet.key == 0) {  // not keyed by the constructor
            // Hash the rows where the reorder left them, hot in cache, and
            // put the hashes back in Morton order by the records' ranks.
            const std::uint32_t n = r.hi - r.lo;
            const std::vector<std::uint64_t> hashes = row_hashes(read_only(rows), n);
            in_order.resize(n);
            for (std::uint32_t k = 0; k < n; ++k) {
                in_order[recs[r.out + k].rank - r.lo] = hashes[k];
            }
            treelet.key = treelet_key(n, [&](std::size_t i) { return in_order[i]; },
                                      key_salt(config, job.global_index(treelet), n, nattrs));
        }
    }
}

/// Run fn(sub_job, timings) over `job`, on `pool` when there is one: cut
/// into bucket groups of about equal weight (`weight_begin`: cumulative
/// per-bucket weights, buckets + 1), one task each (the bytes do not depend
/// on the cut). The pooled wall time is split over the sort/treelets/
/// reorder/bitmaps rows in proportion to the groups' summed time, so the
/// rows still tile it.
template <typename Fn>
void run_pooled(const RangeJob& job, std::span<const std::uint32_t> weight_begin,
                ThreadPool* pool, BatBuildTimings* timings, Fn&& fn) {
    const std::size_t nb = job.num_buckets();
    if (pool == nullptr || pool->num_threads() == 0 || nb < 2) {
        fn(job, timings);
        return;
    }
    const std::size_t ngroups = std::min(nb, 4 * (pool->num_threads() + 1));
    const std::uint32_t base = weight_begin[0];
    const std::size_t total = weight_begin[nb] - base;
    auto first = [&](std::size_t g) {  // first bucket starting at or after g's share
        const std::size_t at = base + g * total / ngroups;
        return static_cast<std::size_t>(
            std::partition_point(weight_begin.begin(), weight_begin.end() - 1,
                                 [&](std::uint32_t b) { return b < at; }) -
            weight_begin.begin());
    };
    std::vector<BatBuildTimings> parts(ngroups);
    const auto t0 = obs::trace_now_ns();
    pool->parallel_for(
        0, ngroups, [&](std::size_t g) { fn(job.slice(first(g), first(g + 1)), &parts[g]); },
        1);
    if (timings == nullptr) {
        return;
    }
    BatBuildTimings sum;
    for (const BatBuildTimings& part : parts) {
        sum += part;
    }
    const double busy = sum.sort + sum.treelets + sum.reorder + sum.bitmaps;
    const double scale =
        busy > 0 ? static_cast<double>(obs::trace_now_ns() - t0) * 1e-9 / busy : 0.0;
    timings->sort += sum.sort * scale;
    timings->treelets += sum.treelets * scale;
    timings->reorder += sum.reorder * scale;
    timings->bitmaps += sum.bitmaps * scale;
}

// ---- job wire format ------------------------------------------------------
// Job:    seed u64, lod_per_inner i32, max_leaf_size i32, subprefix_bits i32,
//         keyed u8, buckets u32, begin u32[buckets + 1] (from 0),
//         group_begin u32[buckets + 1] (global), attrs u32, per attribute
//         kBitmapBins + 1 f64 edges, codes u64[n], then the particles in
//         stable bucket order (ParticleSet wire format).
// Result: two messages. Treelets: count u32, per treelet bounds,
//         first_particle (job-relative), num_particles, max_depth, key,
//         nodes, bitmaps. Particles: the job's particles in layout order
//         (ParticleSet wire format), written in place by the job.

void write_treelet(BufferWriter& w, const Treelet& t) {
    w.write(t.bounds);
    w.write(t.first_particle);
    w.write(t.num_particles);
    w.write(t.max_depth);
    w.write(t.key);
    w.write(static_cast<std::uint32_t>(t.nodes.size()));
    w.write_span(std::span<const TreeletNode>(t.nodes));
    w.write(static_cast<std::uint32_t>(t.bitmaps.size()));
    w.write_span(std::span<const std::uint32_t>(t.bitmaps));
}

Treelet read_treelet(BufferReader& r) {
    Treelet t;
    t.bounds = r.read<Box>();
    t.first_particle = r.read<std::uint32_t>();
    t.num_particles = r.read<std::uint32_t>();
    t.max_depth = r.read<std::int32_t>();
    t.key = r.read<std::uint64_t>();
    const auto nodes = r.read<std::uint32_t>();
    BAT_CHECK_MSG(nodes <= r.remaining() / sizeof(TreeletNode), "treelet node count overruns");
    t.nodes.resize(nodes);
    r.read_into(std::span<TreeletNode>(t.nodes));
    const auto bitmaps = r.read<std::uint32_t>();
    BAT_CHECK_MSG(bitmaps <= r.remaining() / sizeof(std::uint32_t),
                  "treelet bitmap count overruns");
    t.bitmaps.resize(bitmaps);
    r.read_into(std::span<std::uint32_t>(t.bitmaps));
    return t;
}

}  // namespace

BatBuildTimings& BatBuildTimings::operator+=(const BatBuildTimings& o) {
    edges += o.edges;
    encode += o.encode;
    sort += o.sort;
    treelets += o.treelets;
    reorder += o.reorder;
    bitmaps += o.bitmaps;
    wait += o.wait;
    return *this;
}

BatBuildTimings BatBuildTimings::max(const BatBuildTimings& a, const BatBuildTimings& b) {
    BatBuildTimings m;
    m.edges = std::max(a.edges, b.edges);
    m.encode = std::max(a.encode, b.encode);
    m.sort = std::max(a.sort, b.sort);
    m.treelets = std::max(a.treelets, b.treelets);
    m.reorder = std::max(a.reorder, b.reorder);
    m.bitmaps = std::max(a.bitmaps, b.bitmaps);
    m.wait = std::max(a.wait, b.wait);
    return m;
}

/// The delta build's pre-pass over `job` (see BatBuild): sort and key each
/// treelet that kept its point count (`prev`, by global treelet index), and
/// skip the ones whose key matches too. A skipped treelet takes its bounds,
/// depth, node count and root bitmaps from `prev`. Only the sort tells the
/// counts of a bucket with several treelets, so those are always sorted.
void skip_unchanged(const RangeJob& job, const BatConfig& config,
                    std::span<const PreviousTreelet> prev, std::span<const std::uint64_t> row_hash,
                    std::size_t nattrs, BatBuildTimings* timings) {
    std::vector<std::size_t> kept;  // buckets that may hold an unchanged treelet
    for (std::size_t k = 0; k < job.num_buckets(); ++k) {
        const std::uint32_t t = job.group_begin[k];
        if (job.group_begin[k + 1] - t > 1 ||
            prev[t].num_points == job.begin[k + 1] - job.begin[k]) {
            kept.push_back(k);
        }
    }
    {
        obs::PhaseSpan span("bat.sort", accum_into(timings, &BatBuildTimings::sort));
        std::vector<KeyIndex> tmp;
        for (const std::size_t k : kept) {
            job.sort(k, tmp);
        }
    }
    obs::PhaseSpan span("bat.bitmaps", accum_into(timings, &BatBuildTimings::bitmaps));
    for (const std::size_t k : kept) {
        job.split(k, config.subprefix_bits, [&](Treelet& t, std::uint32_t lo, std::uint32_t hi) {
            const std::uint64_t index = job.global_index(t);
            const PreviousTreelet& p = prev[index];
            if (hi - lo != p.num_points) {
                return;
            }
            t.key = treelet_key(
                hi - lo, [&](std::size_t i) { return row_hash[job.pairs[lo + i].index]; },
                key_salt(config, index, hi - lo, nattrs));
            if (t.key == p.key) {
                BAT_CHECK(p.bitmaps.size() >= nattrs);
                t.skipped = true;
                t.bounds = p.bounds;
                t.max_depth = p.max_depth;
                t.reused_nodes = p.num_nodes;
                t.bitmaps.assign(p.bitmaps.begin(),
                                 p.bitmaps.begin() + static_cast<std::ptrdiff_t>(nattrs));
            }
        });
    }
}

struct BatBuild::State {
    const ParticleSet& src;
    ThreadPool* pool;
    BatBuildTimings* timings;
    const BuildHistory* history;       // delta builds only
    BatData bat;                       // config (effective subprefix), ranges,
                                       // edges, bounds
    PrefixBuckets buckets;             // records in stable bucket order + offsets
    std::vector<std::uint32_t> work;   // per bucket + 1: particles to build
                                       // in the buckets before it

    double* accum(double BatBuildTimings::*field) const { return accum_into(timings, field); }

    RangeJob job(std::size_t b0, std::size_t b1) {
        const std::span<const std::uint32_t> begin(buckets.begin);
        const std::span<const std::uint32_t> group_begin(buckets.group_begin);
        RangeJob job;
        job.pairs = std::span<KeyIndex>(buckets.pairs).subspan(begin[b0], begin[b1] - begin[b0]);
        job.begin = begin.subspan(b0, b1 - b0 + 1);
        job.group_begin = group_begin.subspan(b0, b1 - b0 + 1);
        job.work = std::span<const std::uint32_t>(work).subspan(b0, b1 - b0 + 1);
        job.src = columns_of(src);
        job.dst = columns_of(bat.particles);
        job.first_row = begin[b0];
        job.treelets = std::span<Treelet>(bat.treelets)
                           .subspan(group_begin[b0], group_begin[b1] - group_begin[b0]);
        job.keyed = history != nullptr;
        return job;
    }
};

BatBuild::BatBuild(const ParticleSet& particles, const BatConfig& config, ThreadPool* pool,
                   BatBuildTimings* timings, const BuildHistory* history)
    : s_(std::make_unique<State>(State{particles, pool, timings, history, {}, {}, {}})) {
    BAT_CHECK(config.subprefix_bits >= 1 && config.subprefix_bits <= 30);
    BAT_CHECK(config.lod_per_inner >= 1);
    BAT_CHECK(config.max_leaf_size >= 1);
    BAT_CHECK_MSG(particles.count() <= static_cast<std::size_t>(UINT32_MAX),
                  "a BAT indexes its particles with 32 bits");

    BatData& bat = s_->bat;
    bat.config = config;
    const std::size_t n = particles.count();
    const std::size_t nattrs = particles.num_attrs();

    // ---- Attribute range/edge scans (independent per attribute) -----------
    {
        obs::PhaseSpan span("bat.edges", s_->accum(&BatBuildTimings::edges));
        bat.attr_ranges.resize(nattrs);
        bat.attr_edges.resize(nattrs);
        auto attr_scan = [&](std::size_t a) {
            bat.attr_ranges[a] = particles.attr_range(a);
            bat.attr_edges[a] =
                config.binning == BinningScheme::equal_depth
                    ? equal_depth_edges(particles.attr(a))
                    : equal_width_edges(bat.attr_ranges[a].first, bat.attr_ranges[a].second);
        };
        if (pool != nullptr && pool->num_threads() > 0) {
            pool->parallel_for(0, nattrs, attr_scan, 1);
        } else {
            for (std::size_t a = 0; a < nattrs; ++a) {
                attr_scan(a);
            }
        }
    }
    bat.particles = ParticleSet(particles.attr_names());
    if (n == 0) {
        s_->buckets.begin = {0};
        s_->buckets.group_begin = {0};
        s_->work = {0};
        return;
    }

    // ---- Morton encode ----------------------------------------------------
    // Deplane the interleaved positions into SoA coordinate planes once,
    // take the bounds with the vectorized min/max scan, and batch-encode
    // whole plane spans (BMI2 pdep spread + AVX2 quantize where available).
    constexpr std::size_t kGrain = std::size_t{1} << 14;
    std::vector<std::uint64_t> codes(n);
    {
        obs::PhaseSpan span("bat.encode", s_->accum(&BatBuildTimings::encode));
        std::vector<float> xs(n);
        std::vector<float> ys(n);
        std::vector<float> zs(n);
        particles.deplane_positions(xs.data(), ys.data(), zs.data(), pool);
        simd::minmax_f32(xs.data(), n, &bat.bounds.lower.x, &bat.bounds.upper.x);
        simd::minmax_f32(ys.data(), n, &bat.bounds.lower.y, &bat.bounds.upper.y);
        simd::minmax_f32(zs.data(), n, &bat.bounds.lower.z, &bat.bounds.upper.z);
        parallel_ranges(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
            morton_encode_positions(xs.data() + lo, ys.data() + lo, zs.data() + lo, hi - lo,
                                    bat.bounds, codes.data() + lo);
        });
    }

    // ---- Subprefix buckets (§III-C1) --------------------------------------
    // The stable counting pass groups the particles by subprefix: each
    // bucket's records are contiguous and its subprefixes are known, so the
    // treelets and the shallow tree's keys are fixed before any job runs.
    int subprefix_bits = config.subprefix_bits;
    if (config.auto_subprefix) {
        const double want_treelets = std::max(
            1.0, static_cast<double>(n) /
                     static_cast<double>(std::max(1, config.target_treelet_particles)));
        const int bits = static_cast<int>(std::ceil(std::log2(want_treelets)));
        subprefix_bits = std::clamp(bits, 1, config.subprefix_bits);
    }
    bat.config.subprefix_bits = subprefix_bits;
    {
        obs::PhaseSpan span("bat.sort", s_->accum(&BatBuildTimings::sort));
        s_->buckets = prefix_buckets(codes, kMortonBits, subprefix_bits, pool);
    }
    bat.treelets.resize(s_->buckets.prefixes.size());

    // ---- Skip unchanged treelets (delta builds) ---------------------------
    s_->work = s_->buckets.begin;
    if (history != nullptr && history->treelets.size() == bat.treelets.size() &&
        history->attr_edges == bat.attr_edges) {
        std::vector<std::uint64_t> row_hash;
        {
            obs::PhaseSpan span("bat.bitmaps", s_->accum(&BatBuildTimings::bitmaps));
            row_hash = row_hashes(columns_of(particles), n);
        }
        run_pooled(s_->job(0, num_buckets()), s_->buckets.begin, pool, timings,
                   [&](const RangeJob& job, BatBuildTimings* t) {
                       skip_unchanged(job, bat.config, history->treelets, row_hash, nattrs, t);
                   });
        const RangeJob all = s_->job(0, num_buckets());
        for (std::size_t b = 0; b < num_buckets(); ++b) {
            const std::uint32_t size = s_->buckets.begin[b + 1] - s_->buckets.begin[b];
            s_->work[b + 1] = s_->work[b] + (all.bucket_skipped(b) ? 0 : size);
        }
    }
    // Rows only for the buckets still to build: a skipped bucket's rows are
    // never allocated, let alone zero-filled.
    bat.particles.resize(s_->work.back());
}

BatBuild::~BatBuild() = default;

std::size_t BatBuild::num_buckets() const { return s_->buckets.begin.size() - 1; }

std::size_t BatBuild::bucket_begin(std::size_t b) const { return s_->buckets.begin[b]; }

bool BatBuild::bucket_skipped(std::size_t b) const { return s_->work[b + 1] == s_->work[b]; }

std::size_t BatBuild::work_begin(std::size_t b) const { return s_->work[b]; }

std::vector<std::byte> BatBuild::pack_job(std::size_t b0, std::size_t b1) const {
    BAT_CHECK(b0 <= b1 && b1 <= num_buckets());
    obs::PhaseSpan span("bat.reorder", s_->accum(&BatBuildTimings::reorder));
    const BatConfig& config = s_->bat.config;
    const ParticleSet& src = s_->src;
    const std::vector<std::uint32_t>& begin = s_->buckets.begin;
    const std::size_t m = begin[b1] - begin[b0];
    const std::size_t nattrs = src.num_attrs();

    BufferWriter w;
    w.write(config.seed);
    w.write(std::int32_t{config.lod_per_inner});
    w.write(std::int32_t{config.max_leaf_size});
    w.write(std::int32_t{config.subprefix_bits});
    w.write(static_cast<std::uint8_t>(s_->history != nullptr ? 1 : 0));
    w.write(static_cast<std::uint32_t>(b1 - b0));
    for (std::size_t b = b0; b <= b1; ++b) {
        w.write(begin[b] - begin[b0]);
    }
    for (std::size_t b = b0; b <= b1; ++b) {
        w.write(s_->buckets.group_begin[b]);
    }
    w.write(static_cast<std::uint32_t>(nattrs));
    for (const BinEdges& edges : s_->bat.attr_edges) {
        w.write_span(std::span<const double>(edges));
    }
    // The bulk columns are gathered straight into the message: codes, then
    // the particles in stable bucket order (the ParticleSet wire layout).
    BufferWriter set_header;
    set_header.write(static_cast<std::uint64_t>(m));
    set_header.write(static_cast<std::uint32_t>(nattrs));
    for (const std::string& name : src.attr_names()) {
        set_header.write_string(name);
    }
    std::vector<std::byte> bytes = w.take();
    const std::size_t header = bytes.size();
    bytes.resize(header + m * sizeof(std::uint64_t) + set_header.size() +
                 m * src.bytes_per_particle());
    std::byte* out = bytes.data() + header;
    const KeyIndex* pairs = s_->buckets.pairs.data() + begin[b0];
    std::vector<std::uint32_t> rows(m);
    for (std::size_t i = 0; i < m; ++i, out += sizeof(std::uint64_t)) {
        std::memcpy(out, &pairs[i].key, sizeof(std::uint64_t));
        rows[i] = pairs[i].index;
    }
    std::memcpy(out, set_header.bytes().data(), set_header.size());
    out += set_header.size();
    const float* pos = src.positions().data();
    for (std::size_t i = 0; i < m; ++i, out += 3 * sizeof(float)) {
        std::memcpy(out, pos + 3 * std::size_t{rows[i]}, 3 * sizeof(float));
    }
    for (std::size_t a = 0; a < nattrs; ++a) {
        const double* vals = src.attr(a).data();
        for (std::size_t i = 0; i < m; ++i, out += sizeof(double)) {
            std::memcpy(out, vals + rows[i], sizeof(double));
        }
    }
    return bytes;
}

void BatBuild::run_local(std::size_t b0, std::size_t b1) {
    BAT_CHECK(b0 <= b1 && b1 <= num_buckets());
    if (b0 == b1) {
        return;
    }
    const BatData& bat = s_->bat;
    run_pooled(s_->job(b0, b1), std::span<const std::uint32_t>(s_->work).subspan(b0, b1 - b0 + 1),
               s_->pool, s_->timings, [&](const RangeJob& job, BatBuildTimings* t) {
                   run_range(job, bat.config, bat.attr_edges, t);
               });
}

void BatBuild::place_result(std::size_t b0, std::size_t b1, const TreeletJobResult& result) {
    BAT_CHECK(b0 <= b1 && b1 <= num_buckets());
    obs::PhaseSpan span("bat.reorder", s_->accum(&BatBuildTimings::reorder));
    const RangeJob job = s_->job(b0, b1);
    BAT_CHECK_MSG(job.work.back() - job.work.front() == job.pairs.size(),
                  "a job result cannot cover skipped buckets");
    BufferReader r(result.treelets);
    const auto count = r.read<std::uint32_t>();
    BAT_CHECK_MSG(count == job.treelets.size(),
                  "job result holds " << count << " treelets, " << job.treelets.size()
                                      << " expected");
    for (Treelet& treelet : job.treelets) {
        Treelet built = read_treelet(r);
        BAT_CHECK_MSG(std::size_t{built.first_particle} + built.num_particles <=
                          job.pairs.size(),
                      "job result treelet outside its range");
        // A bucket that holds several treelets ships whole: a skipped one
        // among them stays skipped (the job built it the same).
        if (!treelet.skipped) {
            treelet = std::move(built);
            treelet.row = job.work.front() + treelet.first_particle;
            treelet.first_particle += static_cast<std::uint32_t>(job.first_row);
        }
    }
    const std::size_t placed =
        s_->bat.particles.deserialize_into(result.particles, job.work.front());
    BAT_CHECK_MSG(placed == job.pairs.size(), "job result holds " << placed << " particles, "
                                                                  << job.pairs.size()
                                                                  << " expected");
}

BatData BatBuild::finish() {
    BatData& bat = s_->bat;
    const std::size_t nattrs = bat.attr_edges.size();
    const std::size_t num_treelets = bat.treelets.size();
    if (num_treelets == 0) {
        return std::move(bat);
    }
    obs::PhaseSpan span("bat.treelets", s_->accum(&BatBuildTimings::treelets));
    const RadixTree radix =
        build_radix_tree(s_->buckets.prefixes, bat.config.subprefix_bits, s_->pool);
    std::vector<KeyIndex>().swap(s_->buckets.pairs);

    // ---- Flatten the shallow tree to preorder -----------------------------
    // The radix tree uses split indices; we convert to a preorder node array
    // with regions decoded from the Morton prefixes.
    bat.shallow_nodes.clear();
    auto flatten = [&](auto&& self, std::int32_t radix_index, bool is_leaf) -> std::int32_t {
        const auto index = static_cast<std::int32_t>(bat.shallow_nodes.size());
        bat.shallow_nodes.push_back(ShallowNode{});
        ShallowNode node;
        if (is_leaf) {
            node.treelet = radix_index;  // radix leaf i == treelet i
            node.right_child = -1;
            node.bounds = bat.treelets[static_cast<std::size_t>(radix_index)].bounds;
        } else {
            const RadixNode& rn = radix.internal[static_cast<std::size_t>(radix_index)];
            // The split bit position selects the k-d split axis (§III-C1).
            const int full_bit = kMortonBits - 1 - rn.prefix_len;
            node.axis = static_cast<std::uint8_t>(morton_bit_axis(full_bit));
            const std::int32_t left = self(self, rn.left, rn.left_is_leaf);
            BAT_CHECK(left == index + 1);
            node.right_child = self(self, rn.right, rn.right_is_leaf);
            // Node bounds: union of the children's (tight) bounds. The raw
            // Morton prefix region (subprefix_region) would also be valid
            // but looser; tight bounds prune spatial queries better.
            node.bounds = bat.shallow_nodes[static_cast<std::size_t>(left)].bounds;
            node.bounds.extend(
                bat.shallow_nodes[static_cast<std::size_t>(node.right_child)].bounds);
            node.split = node.bounds.center()[node.axis];
        }
        bat.shallow_nodes[static_cast<std::size_t>(index)] = node;
        return index;
    };
    if (num_treelets == 1) {
        flatten(flatten, 0, /*is_leaf=*/true);
    } else {
        flatten(flatten, radix.root, /*is_leaf=*/false);
    }

    // ---- Shallow-node bitmaps (children OR; reverse preorder sweep) -------
    bat.shallow_bitmaps.assign(bat.shallow_nodes.size() * nattrs, 0);
    for (std::size_t i = bat.shallow_nodes.size(); i-- > 0;) {
        const ShallowNode& node = bat.shallow_nodes[i];
        std::uint32_t* bm = bat.shallow_bitmaps.data() + i * nattrs;
        if (node.is_leaf()) {
            const Treelet& t = bat.treelets[static_cast<std::size_t>(node.treelet)];
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = t.bitmaps.empty() ? 0 : t.bitmaps[a];  // treelet root
            }
        } else {
            const std::size_t l = i + 1;
            const auto r = static_cast<std::size_t>(node.right_child);
            for (std::size_t a = 0; a < nattrs; ++a) {
                bm[a] = bat.shallow_bitmaps[l * nattrs + a] |
                        bat.shallow_bitmaps[r * nattrs + a];
            }
        }
    }
    return std::move(bat);
}

TreeletJobResult run_treelet_job(std::vector<std::byte> job, ThreadPool* pool,
                                 BatBuildTimings* timings) {
    BatConfig config;
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> group_begin;
    std::vector<BinEdges> edges;
    std::vector<KeyIndex> pairs;
    BufferReader r(job);
    config.seed = r.read<std::uint64_t>();
    config.lod_per_inner = r.read<std::int32_t>();
    config.max_leaf_size = r.read<std::int32_t>();
    config.subprefix_bits = r.read<std::int32_t>();
    const bool keyed = r.read<std::uint8_t>() != 0;
    BAT_CHECK_MSG(config.subprefix_bits >= 1 && config.subprefix_bits <= 30 &&
                      config.lod_per_inner >= 1 && config.max_leaf_size >= 1,
                  "treelet job with invalid build parameters");
    const auto nb = r.read<std::uint32_t>();
    BAT_CHECK_MSG(nb <= r.remaining() / (2 * sizeof(std::uint32_t)),
                  "treelet job bucket count overruns");
    begin.resize(nb + 1);
    r.read_into(std::span<std::uint32_t>(begin));
    group_begin.resize(nb + 1);
    r.read_into(std::span<std::uint32_t>(group_begin));
    BAT_CHECK_MSG(begin.front() == 0 && std::is_sorted(begin.begin(), begin.end()) &&
                      std::is_sorted(group_begin.begin(), group_begin.end()),
                  "treelet job offsets are not ascending");
    edges.resize(r.read<std::uint32_t>());
    BAT_CHECK_MSG(edges.size() <= r.remaining() / ((kBitmapBins + 1) * sizeof(double)),
                  "treelet job attribute count overruns");
    for (BinEdges& e : edges) {
        e.resize(kBitmapBins + 1);
        r.read_into(std::span<double>(e));
    }
    const std::uint32_t m = begin.back();
    BAT_CHECK_MSG(m <= r.remaining() / sizeof(std::uint64_t),
                  "treelet job particle count overruns");
    pairs.resize(m);
    for (std::uint32_t i = 0; i < m; ++i) {
        pairs[i] = KeyIndex{r.read<std::uint64_t>(), i};
    }
    // The job's particles are read in place from the message, and the
    // result's are written in place into the reply, whose payload starts
    // with the same ParticleSet header.
    const std::size_t set_at = r.pos();
    const SrcColumns src = wire_columns(std::span<const std::byte>(job), r, m, edges.size());
    const auto header_bytes = static_cast<std::size_t>(src.pos - (job.data() + set_at));
    TreeletJobResult result;
    {
        // The reply is written in place by the job; sizing it zero-fills
        // the message (a vector of bytes cannot grow uninitialized).
        obs::PhaseSpan span("bat.reorder", accum_into(timings, &BatBuildTimings::reorder));
        result.particles.resize(header_bytes + (12 + 8 * edges.size()) * std::size_t{m});
        std::memcpy(result.particles.data(), job.data() + set_at, header_bytes);
    }
    BufferReader out_reader(result.particles);
    std::vector<Treelet> treelets(group_begin.back() - group_begin.front());
    RangeJob range;
    range.pairs = pairs;
    range.begin = begin;
    range.group_begin = group_begin;
    range.work = begin;
    range.src = src;
    range.dst = wire_columns(std::span<std::byte>(result.particles), out_reader, m, edges.size());
    range.treelets = treelets;
    range.keyed = keyed;
    run_pooled(range, begin, pool, timings, [&](const RangeJob& job, BatBuildTimings* t) {
        run_range(job, config, edges, t);
    });

    BufferWriter w;
    w.write(static_cast<std::uint32_t>(treelets.size()));
    for (const Treelet& treelet : treelets) {
        write_treelet(w, treelet);
    }
    result.treelets = w.take();
    return result;
}

BatData build_bat(const ParticleSet& particles, const BatConfig& config, ThreadPool* pool,
                  BatBuildTimings* timings) {
    BatBuild build(particles, config, pool, timings);
    build.run_local(0, build.num_buckets());
    return build.finish();
}

}  // namespace bat
