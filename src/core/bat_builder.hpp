#pragma once
// Construction of the Binned Attribute Tree (BAT), the paper's
// multiresolution particle data layout (§III-C, Fig 2).
//
// The build runs for each aggregator after it has received its leaf's
// particles (its treelets possibly on other ranks, see BatBuild), in two
// parallel steps:
//   1. a data-parallel bottom-up build of a *shallow* k-d tree: particles
//      are Morton-sorted, their 12-bit code subprefixes merged, and a
//      Karras radix tree built over the merged subprefixes (§III-C1);
//   2. independent top-down builds of a median-split k-d "treelet" inside
//      each shallow leaf, setting aside a fixed number of stratified-sampled
//      LOD particles at every inner node so coarse representations need no
//      extra memory (§III-C2).
// Each leaf/inner node carries one 32-bit binned bitmap per attribute for
// attribute-filtered queries; bitmaps are deduplicated through a shared
// dictionary at compaction time (§III-C3, bat_file.hpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/particles.hpp"
#include "util/thread_pool.hpp"
#include "util/vec3.hpp"

namespace bat {

/// How attribute values are mapped to the 32 bitmap bins.
/// equal_width is the paper's standard binning (§III-C2); equal_depth
/// places bin edges at value quantiles (Wu et al. [43], the "more advanced
/// binning schemes" §VII-A suggests), which keeps bins useful for skewed
/// attribute distributions at the cost of computing quantiles per
/// aggregator.
enum class BinningScheme : std::uint32_t {
    equal_width = 0,
    equal_depth = 1,
};

struct BatConfig {
    /// Maximum Morton-code subprefix length merged to form the shallow tree
    /// (paper: 12 bits gives satisfactory leaf counts/sizes at the paper's
    /// multi-million-particle aggregator loads).
    int subprefix_bits = 12;
    /// When true (default), the subprefix is shortened for small inputs so
    /// treelets hold roughly `target_treelet_particles` each — without this,
    /// small aggregator files would shatter into thousands of near-empty
    /// 4 KB-aligned treelets and the layout overhead would explode.
    bool auto_subprefix = true;
    int target_treelet_particles = 4096;
    /// LOD particles set aside at each treelet inner node (paper evaluation
    /// uses 8).
    int lod_per_inner = 8;
    /// Maximum particles in a treelet leaf (paper evaluation uses 128).
    int max_leaf_size = 128;
    /// Seed for the stratified LOD sampling (deterministic builds).
    std::uint64_t seed = 0;
    /// Bitmap bin placement (see BinningScheme).
    BinningScheme binning = BinningScheme::equal_width;
};

/// Number of bins in every attribute bitmap. The paper restricts bitmaps to
/// exactly 32 bits so they are cheap, fixed-size, and dictionary-friendly.
inline constexpr int kBitmapBins = 32;

/// Compute the bin of value `v` within [lo, hi] (degenerate ranges map to
/// bin 0).
int bitmap_bin(double v, double lo, double hi);

/// Bitmap with the bits of all bins overlapped by [lo, hi] set, relative to
/// the attribute range [range_lo, range_hi]. Empty intersection gives 0.
std::uint32_t bitmap_for_range(double lo, double hi, double range_lo, double range_hi);

/// Bin edges: kBitmapBins + 1 monotone non-decreasing values; bin b covers
/// [edges[b], edges[b+1]) (the last bin is closed above).
using BinEdges = std::vector<double>;

/// Equal-width edges over [lo, hi] (the paper's standard binning).
BinEdges equal_width_edges(double lo, double hi);

/// Equal-depth edges: bin boundaries at the value quantiles of `values`
/// (estimated from an evenly strided sample of at most `max_sample`).
BinEdges equal_depth_edges(std::span<const double> values,
                           std::size_t max_sample = 65536);

/// Bin of `v` under `edges` (clamped to [0, kBitmapBins-1]).
int bin_of(double v, const BinEdges& edges);

/// Bitmap with all bins whose interval can hold a value in [lo, hi] set.
std::uint32_t bitmap_for_range(double lo, double hi, const BinEdges& edges);

/// One node of a treelet, stored on disk verbatim. Children of an inner
/// node: left = own index + 1 (preorder), right = `right_child`.
/// Particles are treelet-local: a node's subtree occupies [start,
/// start+count); its *own* points (LOD samples for inner nodes, everything
/// for leaves) are the first `own_count` of the range.
struct TreeletNode {
    std::uint32_t start = 0;
    std::uint32_t count = 0;
    std::uint32_t own_count = 0;
    std::int32_t right_child = -1;  // -1 for leaves
    float split = 0.f;
    std::uint8_t axis = 0;
    std::uint8_t pad[3] = {0, 0, 0};

    bool is_leaf() const { return right_child < 0; }
};
static_assert(sizeof(TreeletNode) == 24);

/// One node of the shallow tree. Preorder: left child = own index + 1.
struct ShallowNode {
    Box bounds;                      // region from the Morton prefix
    std::int32_t right_child = -1;   // -1 for leaves
    std::int32_t treelet = -1;       // leaf: index of the treelet
    float split = 0.f;
    std::uint8_t axis = 0;
    std::uint8_t pad[3] = {0, 0, 0};

    bool is_leaf() const { return right_child < 0; }
};
static_assert(sizeof(ShallowNode) == 40);

/// In-memory treelet produced by the build (pre-compaction).
struct Treelet {
    Box bounds;                        // tight bounds of contained particles
    std::uint32_t first_particle = 0;  // offset into the BAT-wide order
    /// First row in BatData::particles: first_particle, less the rows of
    /// the buckets a delta build skipped before it.
    std::uint32_t row = 0;
    std::uint32_t num_particles = 0;
    std::int32_t max_depth = 0;        // deepest node depth (root = 0)
    std::vector<TreeletNode> nodes;
    /// Per node, per attribute: the node's 32-bit binned bitmap
    /// (nodes.size() * num_attrs entries, node-major).
    std::vector<std::uint32_t> bitmaps;
    /// Key of the treelet's build input (delta builds only, else 0): its
    /// rows in in-bucket Morton order, its global treelet index and the
    /// build parameters. Everything the treelet's block holds except the
    /// bitmaps is a function of these, so equal keys and point counts mean
    /// equal nodes, bounds, depth and rows. Only comparable against keys
    /// from the same code (never persisted).
    std::uint64_t key = 0;
    /// Set by a delta build when the key and point count equal the
    /// previous step's (and the bin edges did not move): the treelet was
    /// not built. Its layout rows are unwritten, `nodes` is empty and
    /// `bitmaps` holds the root's only; bounds, max_depth and
    /// `reused_nodes` (its node count) are the previous step's. Only a
    /// delta reference can serialize it.
    bool skipped = false;
    std::uint32_t reused_nodes = 0;

    std::size_t num_nodes() const { return skipped ? reused_nodes : nodes.size(); }
};

/// One treelet of a delta build's previous step: its key and the facts its
/// directory entry and the shallow tree need when it is not built again.
struct PreviousTreelet {
    std::uint64_t key = 0;
    std::uint32_t num_points = 0;
    std::uint32_t num_nodes = 0;
    std::int32_t max_depth = 0;
    Box bounds;
    std::vector<std::uint32_t> bitmaps;  // every node's, node-major
};

/// The previous step of a delta build of the same leaf.
struct BuildHistory {
    std::vector<BinEdges> attr_edges;
    std::vector<PreviousTreelet> treelets;  // empty: nothing to skip
};

/// The complete in-memory BAT for one aggregator, ready for compaction to
/// disk (bat_file.hpp) or direct in-transit queries.
struct BatData {
    BatConfig config;
    Box bounds;
    /// Particles reordered into the on-disk layout order (treelet by
    /// treelet; within a treelet, each node's own points come first,
    /// followed by the left then right subtrees). A delta build holds rows
    /// only for the buckets it built (see Treelet::row).
    ParticleSet particles;
    std::vector<ShallowNode> shallow_nodes;
    /// Per shallow node, per attribute (node-major), pre-dictionary.
    std::vector<std::uint32_t> shallow_bitmaps;
    std::vector<Treelet> treelets;
    /// Aggregator-local (min, max) per attribute; bitmaps are binned
    /// relative to these (paper §III-C2).
    std::vector<std::pair<double, double>> attr_ranges;
    /// Per-attribute bitmap bin edges (kBitmapBins + 1 each; equal-width
    /// over the local range by default, quantiles for equal_depth).
    std::vector<BinEdges> attr_edges;

    std::size_t num_attrs() const { return particles.num_attrs(); }
    /// Points of all treelets (a delta build's `particles` may hold fewer).
    std::size_t num_particles() const;
    /// Root (whole-aggregator) bitmap of attribute `a`, used to populate
    /// the top-level metadata (§III-D).
    std::uint32_t root_bitmap(std::size_t a) const;
};

/// Wall-clock seconds per build_bat sub-phase (the bat.* trace spans),
/// aggregated across ranks like WritePhaseTimings.
struct BatBuildTimings {
    double edges = 0;     // attribute range + bin-edge scans
    double encode = 0;    // position deplane + batched Morton encode
    double sort = 0;      // subprefix bucket pass + in-bucket Morton sorts
    double treelets = 0;  // per-treelet k-d builds + shallow tree
    double reorder = 0;   // gather into layout order (+ job pack/place)
    double bitmaps = 0;   // per-node attribute bitmaps (and treelet keys)
    double wait = 0;      // aggregator blocked on helper ranks' job results

    BatBuildTimings& operator+=(const BatBuildTimings& o);
    /// Component-wise max (for "slowest rank" reductions).
    static BatBuildTimings max(const BatBuildTimings& a, const BatBuildTimings& b);
};

/// Build the BAT over `particles` (left untouched; the BAT holds a copy in
/// layout order). `pool` parallelizes the global steps and runs the
/// treelet-range jobs over bucket groups. When `timings` is given,
/// per-sub-phase seconds are accumulated into it. Equivalent to a BatBuild
/// whose buckets all run locally.
BatData build_bat(const ParticleSet& particles, const BatConfig& config,
                  ThreadPool* pool = nullptr, BatBuildTimings* timings = nullptr);

/// What a treelet-range job sends back, as two messages: its treelets, and
/// its particles in layout order (ParticleSet wire format).
struct TreeletJobResult {
    std::vector<std::byte> treelets;
    std::vector<std::byte> particles;
};

/// A BAT build split at the subprefix bucket pass, so that its treelets can
/// be built on other ranks (§III-C2: treelets are independent sub-builds).
///
/// The constructor runs the global steps: attribute ranges and bin edges,
/// Morton encode, and the stable counting pass that groups particles into
/// subprefix buckets. Everything after it is a *treelet-range job* over a
/// contiguous run of buckets: the in-bucket MSD sort, the k-d/LOD treelet
/// builds (each seeded by its global treelet index), the reorder into
/// layout order, and the per-treelet bitmaps. A job runs here (run_local)
/// or on another rank: pack_job writes its input, and run_treelet_job
/// there returns the bytes place_result takes back. Every bucket that
/// needs building must be covered exactly once before finish(), which
/// builds the shallow tree and its bitmaps. Any cut of the buckets gives
/// the bytes of build_bat.
///
/// A delta build (given a BuildHistory) keys every treelet (Treelet::key).
/// When the previous step had as many treelets and the same bin edges,
/// the constructor sorts and keys each bucket whose treelets kept their
/// point counts, and skips the treelets whose key also matches: they are
/// never built, packed or placed, and a bucket whose treelets are all
/// skipped needs no job (bucket_skipped) and gets no rows in
/// BatData::particles. Jobs key the treelets the constructor did not.
class BatBuild {
public:
    /// `particles` (and `history`, if given) must outlive the build.
    BatBuild(const ParticleSet& particles, const BatConfig& config, ThreadPool* pool = nullptr,
             BatBuildTimings* timings = nullptr, const BuildHistory* history = nullptr);
    ~BatBuild();
    BatBuild(const BatBuild&) = delete;
    BatBuild& operator=(const BatBuild&) = delete;

    /// Number of non-empty subprefix buckets (jobs cut between them).
    std::size_t num_buckets() const;
    /// Particles in buckets [0, b): bucket b spans [bucket_begin(b),
    /// bucket_begin(b + 1)) of the layout order.
    std::size_t bucket_begin(std::size_t b) const;
    /// True when every treelet of bucket b was skipped (no job needs it).
    bool bucket_skipped(std::size_t b) const;
    /// Particles in the buckets [0, b) that need building.
    std::size_t work_begin(std::size_t b) const;

    /// Job input for buckets [b0, b1): the particles in stable bucket order
    /// (sorted, for the buckets the constructor keyed) with their Morton
    /// codes, bucket and treelet offsets, bin edges, the build parameters,
    /// whether to key the treelets, and the first global treelet index.
    std::vector<std::byte> pack_job(std::size_t b0, std::size_t b1) const;
    /// Run the job over buckets [b0, b1) here, over bucket groups on the
    /// pool; skipped treelets stay unbuilt.
    void run_local(std::size_t b0, std::size_t b1);
    /// Take back the run_treelet_job result of the job over buckets [b0, b1)
    /// (none of them skipped).
    void place_result(std::size_t b0, std::size_t b1, const TreeletJobResult& result);
    /// Shallow tree and its bitmaps over the finished treelets.
    BatData finish();

private:
    struct State;
    std::unique_ptr<State> s_;
};

/// Run a packed treelet-range job (BatBuild::pack_job) and return its
/// result, with every treelet keyed when the job asks for keys. The job's
/// particles are read in place from `job`. `pool` runs bucket groups;
/// seconds accumulate into the sort/treelets/reorder/bitmaps rows of
/// `timings`.
TreeletJobResult run_treelet_job(std::vector<std::byte> job, ThreadPool* pool = nullptr,
                                 BatBuildTimings* timings = nullptr);

}  // namespace bat
