#include "io/writer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "core/bat_file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace bat {

namespace {

constexpr int kTagData = 1;
/// Treelet-range jobs (aggregator -> helper) and their results (back).
constexpr int kTagJob = 2;
constexpr int kTagJobResult = 3;

std::string leaf_file_name(const std::string& basename, int leaf_id) {
    return basename + "_" + std::to_string(leaf_id) + ".bat";
}

/// Bucket edges for the transfer message-size histogram: powers of four
/// from 1 KiB to 1 GiB.
std::vector<double> transfer_size_bounds() {
    std::vector<double> bounds;
    for (double b = 1024.0; b <= 1024.0 * 1024.0 * 1024.0; b *= 4.0) {
        bounds.push_back(b);
    }
    return bounds;
}

/// Bucket edges for the delta-chain-length histogram (steps back the oldest
/// referenced treelet lives; bounded by the keyframe interval).
std::vector<double> chain_len_bounds() { return {1, 2, 4, 8, 16, 32}; }

}  // namespace

// Transfer-plumbing types live in io_detail (not the anonymous namespace)
// because WritePlanState holds an Assignment across steps.
namespace io_detail {

/// Per-leaf aggregation duty sent to an aggregator rank.
struct LeafDuty {
    int leaf_id = -1;
    std::vector<std::pair<int, std::uint64_t>> senders;  // (rank, particle count)
    /// Help plan: (helper rank, fraction of the leaf's particles) per
    /// helper, shipped as treelet-range jobs; the aggregator builds the rest.
    std::vector<std::pair<int, double>> help;
};

/// Assignment message scattered from rank 0 to each rank.
struct Assignment {
    int my_leaf = -1;          // leaf this rank's data belongs to (-1: none)
    int my_aggregator = -1;    // destination rank for this rank's data
    int num_leaves = 0;
    std::vector<LeafDuty> duties;  // leaves this rank aggregates
    int leaves_to_help = 0;        // heavier leaves this rank builds jobs of

    std::vector<std::byte> to_bytes() const {
        BufferWriter w;
        w.write(std::int32_t{my_leaf});
        w.write(std::int32_t{my_aggregator});
        w.write(std::int32_t{num_leaves});
        w.write(std::int32_t{leaves_to_help});
        w.write(static_cast<std::uint32_t>(duties.size()));
        for (const LeafDuty& duty : duties) {
            w.write(std::int32_t{duty.leaf_id});
            w.write(static_cast<std::uint32_t>(duty.senders.size()));
            for (const auto& [rank, count] : duty.senders) {
                w.write(std::int32_t{rank});
                w.write(count);
            }
            w.write(static_cast<std::uint32_t>(duty.help.size()));
            for (const auto& [rank, fraction] : duty.help) {
                w.write(std::int32_t{rank});
                w.write(fraction);
            }
        }
        return w.take();
    }

    static Assignment from_bytes(std::span<const std::byte> bytes) {
        BufferReader r(bytes);
        Assignment a;
        a.my_leaf = r.read<std::int32_t>();
        a.my_aggregator = r.read<std::int32_t>();
        a.num_leaves = r.read<std::int32_t>();
        a.leaves_to_help = r.read<std::int32_t>();
        a.duties.resize(r.read<std::uint32_t>());
        for (LeafDuty& duty : a.duties) {
            duty.leaf_id = r.read<std::int32_t>();
            duty.senders.resize(r.read<std::uint32_t>());
            for (auto& [rank, count] : duty.senders) {
                rank = r.read<std::int32_t>();
                count = r.read<std::uint64_t>();
            }
            duty.help.resize(r.read<std::uint32_t>());
            for (auto& [rank, fraction] : duty.help) {
                rank = r.read<std::int32_t>();
                fraction = r.read<double>();
            }
        }
        return a;
    }
};

/// Carry-over of one leaf between steps: the previous build (bin edges,
/// per treelet its key and the facts a skipped treelet reuses) plus the
/// physical location (file name + treelet index) of every treelet's bytes.
/// References are flattened — treelet_file[t] always names the file that
/// physically holds the block, never an intermediate delta file.
struct LeafDeltaState {
    BuildHistory history;
    std::vector<std::string> treelet_file;    // per treelet, physical holder
    std::vector<std::uint32_t> treelet_index; // per treelet, index in holder
    std::vector<int> ages;  // steps since the treelet was written inline
    /// File recorded in the metadata for this leaf last step (its own file,
    /// or an older one when the whole leaf was unchanged) + its base table,
    /// and the non-treelet sections needed to prove a whole-file match.
    std::string last_file;
    std::vector<std::string> last_file_bases;
    std::vector<std::pair<double, double>> attr_ranges;
    std::vector<ShallowNode> shallow_nodes;
    std::vector<std::uint32_t> shallow_bitmaps;
};

/// Everything write_particles carries from one step to the next.
struct WritePlanState {
    bool valid = false;
    int nranks = 0;
    AggStrategy strategy = AggStrategy::adaptive;
    RankInfo my_info;        // this rank's previous bounds + count
    Assignment assignment;   // this rank's previous assignment
    Aggregation agg;         // rank 0 only
    std::map<int, LeafDeltaState> leaves;  // keyed by leaf id (my duties)
};

}  // namespace io_detail

using io_detail::Assignment;
using io_detail::LeafDuty;

WritePlan::WritePlan() : state_(std::make_unique<io_detail::WritePlanState>()) {}
WritePlan::~WritePlan() = default;
WritePlan::WritePlan(WritePlan&&) noexcept = default;
WritePlan& WritePlan::operator=(WritePlan&&) noexcept = default;

bool WritePlan::valid() const { return state_->valid; }

void WritePlan::reset() { *state_ = io_detail::WritePlanState{}; }

const char* to_string(AggStrategy s) {
    switch (s) {
        case AggStrategy::adaptive: return "adaptive";
        case AggStrategy::aug: return "aug";
        case AggStrategy::file_per_process: return "file-per-process";
    }
    return "?";
}

WritePhaseTimings& WritePhaseTimings::operator+=(const WritePhaseTimings& o) {
    gather += o.gather;
    tree_build += o.tree_build;
    scatter += o.scatter;
    transfer += o.transfer;
    bat_build += o.bat_build;
    file_write += o.file_write;
    metadata += o.metadata;
    bat += o.bat;
    return *this;
}

WritePhaseTimings WritePhaseTimings::max(const WritePhaseTimings& a,
                                         const WritePhaseTimings& b) {
    WritePhaseTimings m;
    m.gather = std::max(a.gather, b.gather);
    m.tree_build = std::max(a.tree_build, b.tree_build);
    m.scatter = std::max(a.scatter, b.scatter);
    m.transfer = std::max(a.transfer, b.transfer);
    m.bat_build = std::max(a.bat_build, b.bat_build);
    m.file_write = std::max(a.file_write, b.file_write);
    m.metadata = std::max(a.metadata, b.metadata);
    m.bat = BatBuildTimings::max(a.bat, b.bat);
    return m;
}

Aggregation build_aggregation(std::span<const RankInfo> ranks, AggStrategy strategy,
                              const AggTreeConfig& tree_config, ThreadPool* pool) {
    switch (strategy) {
        case AggStrategy::adaptive:
            return build_agg_tree(ranks, tree_config, pool);
        case AggStrategy::aug: {
            AugConfig aug;
            aug.target_file_size = tree_config.target_file_size;
            aug.bytes_per_particle = tree_config.bytes_per_particle;
            return build_aug(ranks, aug);
        }
        case AggStrategy::file_per_process:
            return build_file_per_process(ranks);
    }
    BAT_FAIL("unknown aggregation strategy");
}

namespace {

/// Plan reuse threshold: a rank whose particle count moved by more than this
/// fraction of its previous count forces a replan.
constexpr double kMaxRankDrift = 0.3;

/// Help plan cost model, in units of one aggregated particle's write cost
/// (global build steps, treelet-range job, file write). A shipped particle
/// costs its helper kJobCost (the job, its messages, and the wait for the
/// next job) and its aggregator kShipCost (packing the job, placing the
/// result, and the placing left after the last result), so the aggregator
/// saves kJobCost - kShipCost. Tuned on the boiler-dump steps (3 ranks,
/// one dominant) by sweeping both: of kJobCost 0.75-1.2 and kShipCost
/// 0.2-0.5, (1.0, 0.4) gave the lowest write wall time.
constexpr double kJobCost = 1.0;
constexpr double kShipCost = 0.4;
/// Smallest share of a leaf worth shipping to a helper, in particles.
constexpr std::uint64_t kMinJobParticles = 16384;
/// Largest treelet-range job message, in particles: a helper's share
/// ships as several jobs, so the helper starts on the first while the next
/// is packed, and each message (about 4 MiB at 14 attributes) stays on the
/// heap instead of in fresh pages.
constexpr std::size_t kJobParticles = 32768;
/// Jobs a helper holds unanswered: one to build, the rest queued so it
/// never idles while the aggregator is busy between refills. Bounds the
/// job and result bytes in flight.
constexpr std::size_t kJobsInFlight = 3;
/// History of a plan-carrying build with nothing to skip.
const BuildHistory kNoHistory;

/// Build the aggregation over `infos` and assign its aggregators:
/// file-per-process writes from the owning rank itself, the others spread
/// aggregators over rank space.
Aggregation plan_aggregation(std::span<const RankInfo> infos, const WriterConfig& config,
                             std::size_t bytes_per_particle) {
    AggTreeConfig tree_config = config.tree;
    tree_config.bytes_per_particle = bytes_per_particle;
    Aggregation agg = build_aggregation(infos, config.strategy, tree_config, config.pool);
    if (config.strategy == AggStrategy::file_per_process) {
        for (AggLeaf& leaf : agg.leaves) {
            leaf.aggregator = leaf.ranks.front();
        }
    } else {
        agg.assign_aggregators(static_cast<int>(infos.size()));
    }
    return agg;
}

/// The help plan (§III-C2 treelets are independent sub-builds): balance the
/// leaf particle counts over all ranks. A rank's load is the particle count
/// of the leaves it aggregates. Under the kJobCost / kShipCost model, the
/// level every rank can reach is found by bisection: ranks above it ship
/// treelet-range jobs (at most their whole leaves) until they reach it,
/// ranks below it take jobs until they reach it, lightest first. A heavy
/// rank never helps, and a share below kMinJobParticles is not worth its
/// messages. Shares are fractions of their leaf, so a reused plan absorbs
/// count drift.
void plan_help(const Aggregation& agg, std::vector<Assignment>& assignments) {
    const std::size_t nranks = assignments.size();
    std::vector<double> load(nranks, 0.0);
    for (const AggLeaf& leaf : agg.leaves) {
        load[static_cast<std::size_t>(leaf.aggregator)] +=
            static_cast<double>(leaf.num_particles);
    }
    // Particles a rank at `l` ships, or takes, to reach `level`.
    auto ships = [](double level, double l) {
        return std::clamp((l - level) / (kJobCost - kShipCost), 0.0, l);
    };
    auto takes = [](double level, double l) { return std::max(0.0, (level - l) / kJobCost); };
    double lo = *std::min_element(load.begin(), load.end());
    double hi = *std::max_element(load.begin(), load.end());
    for (int it = 0; it < 64; ++it) {
        const double mid = 0.5 * (lo + hi);
        double balance = 0.0;
        for (const double l : load) {
            balance += ships(mid, l) - takes(mid, l);
        }
        (balance > 0.0 ? lo : hi) = mid;
    }
    const double level = hi;  // every shipped particle has a taker
    std::vector<int> heavy;
    std::vector<int> light;
    std::vector<double> room(nranks, 0.0);
    for (std::size_t r = 0; r < nranks; ++r) {
        if (load[r] > level) {
            heavy.push_back(static_cast<int>(r));
        } else if (load[r] < level) {
            light.push_back(static_cast<int>(r));
            room[r] = takes(level, load[r]);
        }
    }
    // Heaviest first and lightest first; rank order breaks ties.
    std::stable_sort(heavy.begin(), heavy.end(),
                     [&](int a, int b) { return load[static_cast<std::size_t>(a)] >
                                                load[static_cast<std::size_t>(b)]; });
    std::stable_sort(light.begin(), light.end(),
                     [&](int a, int b) { return load[static_cast<std::size_t>(a)] <
                                                load[static_cast<std::size_t>(b)]; });
    const auto min_job = static_cast<double>(kMinJobParticles);
    std::size_t next = 0;  // current helper in `light`
    for (const int r : heavy) {
        const double rank_load = load[static_cast<std::size_t>(r)];
        const double shipped = ships(level, rank_load);
        for (LeafDuty& duty : assignments[static_cast<std::size_t>(r)].duties) {
            const auto n = static_cast<double>(
                agg.leaves[static_cast<std::size_t>(duty.leaf_id)].num_particles);
            double left = shipped * n / rank_load;  // this leaf's share
            while (left >= min_job && next < light.size()) {
                const int helper = light[next];
                double& free = room[static_cast<std::size_t>(helper)];
                if (free < min_job) {
                    ++next;
                    continue;
                }
                const double take = std::min(left, free);
                duty.help.emplace_back(helper, take / n);
                assignments[static_cast<std::size_t>(helper)].leaves_to_help += 1;
                free -= take;
                left -= take;
            }
        }
    }
}

std::vector<vmpi::Bytes> make_assignments(const Aggregation& agg,
                                          std::span<const RankInfo> infos, int nranks) {
    std::vector<Assignment> assignments(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
        Assignment& a = assignments[static_cast<std::size_t>(r)];
        a.num_leaves = static_cast<int>(agg.leaves.size());
        a.my_leaf = agg.rank_to_leaf[static_cast<std::size_t>(r)];
        a.my_aggregator =
            a.my_leaf >= 0 ? agg.leaves[static_cast<std::size_t>(a.my_leaf)].aggregator : -1;
    }
    for (std::size_t leaf_id = 0; leaf_id < agg.leaves.size(); ++leaf_id) {
        const AggLeaf& leaf = agg.leaves[leaf_id];
        LeafDuty duty;
        duty.leaf_id = static_cast<int>(leaf_id);
        duty.senders.reserve(leaf.ranks.size());
        for (int r : leaf.ranks) {
            // Ranks without particles skip the transfer (paper §III-B).
            const std::uint64_t count = infos[static_cast<std::size_t>(r)].num_particles;
            if (count > 0) {
                duty.senders.emplace_back(r, count);
            }
        }
        assignments[static_cast<std::size_t>(leaf.aggregator)].duties.push_back(
            std::move(duty));
    }
    plan_help(agg, assignments);
    std::vector<vmpi::Bytes> blobs;
    blobs.reserve(assignments.size());
    for (const Assignment& a : assignments) {
        blobs.push_back(a.to_bytes());
    }
    return blobs;
}

// ---- pipeline stages ------------------------------------------------------
// write_particles runs them all; write_particles_serial aggregates in one
// process and shares build_leaf (without help), write_leaf and
// publish_metadata. Each obs::PhaseSpan
// both emits a trace span (when BAT_TRACE is on) and accumulates wall
// seconds into the matching WritePhaseTimings field — the only bookkeeping
// path for Fig 6/10/12.

/// (a)+(b) Plan: with a valid plan each rank checks its own drift against
/// the previous step and an all-ranks AND decides collectively whether the
/// cached aggregation + assignment still hold. Otherwise gather counts and
/// bounds, build the aggregation on rank 0 (into `fresh_agg`, or into the
/// plan when one is carried) and scatter the assignments. The plan must be
/// passed on every rank or on none — validity transitions collectively.
Assignment plan_write(vmpi::Comm& comm, const ParticleSet& local, const Box& local_bounds,
                      const WriterConfig& config, io_detail::WritePlanState* state,
                      Aggregation& fresh_agg, WriteResult& result) {
    const int nranks = comm.size();
    const RankInfo my_info{local_bounds, local.count()};
    std::vector<RankInfo> infos;
    bool reuse = false;
    {
        obs::PhaseSpan span("write.gather", &result.timings.gather);
        if (state != nullptr && state->valid) {
            const RankInfo& prev = state->my_info;
            const std::uint64_t pn = prev.num_particles;
            const std::uint64_t n = local.count();
            const double drift =
                pn > 0 ? std::abs(static_cast<double>(n) - static_cast<double>(pn)) /
                             static_cast<double>(pn)
                       : 0.0;
            const bool local_ok = state->nranks == nranks &&
                                  state->strategy == config.strategy &&
                                  prev.bounds == local_bounds && (pn > 0) == (n > 0) &&
                                  drift <= kMaxRankDrift;
            reuse = comm.allreduce(local_ok ? 1 : 0,
                                   [](int a, int b) { return a & b; }) != 0;
        }
        if (!reuse) {
            infos = comm.gather(my_info, 0);
        }
    }

    Assignment assignment;
    if (reuse) {
        assignment = state->assignment;
        result.reused_plan = true;
        if (comm.rank() == 0) {
            obs::MetricsRegistry::global().counter("write.plan_reused").add(1);
        }
    } else {
        std::vector<vmpi::Bytes> assignment_blobs;
        {
            obs::PhaseSpan span("write.tree_build", &result.timings.tree_build);
            if (comm.rank() == 0) {
                fresh_agg = plan_aggregation(infos, config, local.bytes_per_particle());
                assignment_blobs = make_assignments(fresh_agg, infos, nranks);
            }
        }
        {
            obs::PhaseSpan span("write.scatter", &result.timings.scatter);
            assignment =
                Assignment::from_bytes(comm.scatterv(std::move(assignment_blobs), 0));
        }
        if (state != nullptr) {
            // Replan: the leaf decomposition may have shifted, so the old
            // per-leaf keys describe regions that no longer line up —
            // drop them and let this step repopulate from its full writes.
            state->leaves.clear();
            state->agg = std::move(fresh_agg);
            state->assignment = assignment;
            state->nranks = nranks;
            state->strategy = config.strategy;
            state->valid = true;
        }
    }
    if (state != nullptr) {
        state->my_info = my_info;
    }
    result.num_leaves = assignment.num_leaves;
    result.my_leaf = assignment.my_leaf;
    return assignment;
}

/// (b') Transfer: send this rank's particles to its aggregator and merge
/// the leaves this rank aggregates. Each sender serializes once and the
/// payload is moved into the destination mailbox. The aggregator receives
/// every remote payload any-source, so one slow sender cannot serialize it,
/// then sizes each leaf from the payload headers and appends the senders in
/// duty.senders order (the leaf's rank order) — arrival order never reaches
/// the merged set (and thus the output bytes). Its own particles skip
/// (de)serialization and are copied in; a leaf whose only sender is this
/// rank is not merged at all (the BAT build reads `local` itself).
/// `counts_exact` is false for a reused plan, whose cached per-sender
/// counts may have drifted; the sender sets stay exact (an empty/non-empty
/// flip forces a replan).
struct LeafInput {
    ParticleSet merged;      // the leaf's particles, unless self_only
    bool self_only = false;  // the leaf is exactly this rank's particles

    const ParticleSet& particles(const ParticleSet& local) const {
        return self_only ? local : merged;
    }
};

std::vector<LeafInput> transfer(vmpi::Comm& comm, const ParticleSet& local,
                                const Assignment& assignment, bool counts_exact,
                                WriteResult& result) {
    obs::PhaseSpan span("write.transfer", &result.timings.transfer);
    auto& metrics = obs::MetricsRegistry::global();
    const int self = comm.rank();
    if (!local.empty()) {
        BAT_CHECK_MSG(assignment.my_aggregator >= 0,
                      "rank " << self << " owns particles but has no aggregator");
        if (assignment.my_aggregator != self) {
            vmpi::Bytes payload = local.to_bytes();
            metrics.histogram("write.transfer_msg_bytes", transfer_size_bounds())
                .record(static_cast<double>(payload.size()));
            comm.isend(assignment.my_aggregator, kTagData, std::move(payload));
        }
    }

    // Per rank: whether it sends to this aggregator, and its payload.
    std::vector<char> is_sender(static_cast<std::size_t>(comm.size()), 0);
    std::vector<vmpi::Bytes> payloads(static_cast<std::size_t>(comm.size()));
    std::size_t expected = 0;
    for (const LeafDuty& duty : assignment.duties) {
        for (const auto& [sender, count] : duty.senders) {
            if (sender != self) {
                char& flag = is_sender[static_cast<std::size_t>(sender)];
                BAT_CHECK_MSG(flag == 0, "rank " << sender << " feeds two leaves");
                flag = 1;
                ++expected;
            }
        }
    }
    for (std::size_t m = 0; m < expected; ++m) {
        int from = -1;
        vmpi::Bytes payload = comm.recv(vmpi::kAnySource, kTagData, &from);
        const auto f = static_cast<std::size_t>(from);
        BAT_CHECK_MSG(is_sender[f] != 0 && payloads[f].empty(),
                      "unexpected transfer payload from rank " << from);
        metrics.counter("write.transfer_bytes").add(payload.size());
        payloads[f] = std::move(payload);
    }

    std::vector<LeafInput> leaves(assignment.duties.size());
    for (std::size_t d = 0; d < assignment.duties.size(); ++d) {
        const LeafDuty& duty = assignment.duties[d];
        std::size_t total = 0;
        for (const auto& [sender, count] : duty.senders) {
            const std::size_t got =
                sender == self ? local.count()
                               : ParticleSet::wire_count(payloads[static_cast<std::size_t>(sender)]);
            BAT_CHECK_MSG(!counts_exact || got == count,
                          "sender " << sender << " sent " << got << " particles, " << count
                                    << " expected");
            total += got;
        }
        if (duty.senders.size() == 1 && duty.senders.front().first == self) {
            leaves[d].self_only = true;
            metrics.counter("write.transfer_bytes").add(local.payload_bytes());
            continue;
        }
        // Reserved once, then appended: no regrowth, and no zero-fill of
        // the aggregator's own particles before they are copied in.
        ParticleSet& merged = leaves[d].merged;
        merged = ParticleSet(local.attr_names());
        merged.reserve(total);
        for (const auto& [sender, count] : duty.senders) {
            if (sender == self) {
                merged.append(local);
                metrics.counter("write.transfer_bytes").add(local.payload_bytes());
            } else {
                // Moved out so each payload is freed once placed.
                const vmpi::Bytes payload = std::move(payloads[static_cast<std::size_t>(sender)]);
                merged.append_from_bytes(payload);
            }
        }
    }
    return leaves;
}

/// (c) Build one leaf's BAT. With a help plan (collective writes only),
/// the aggregator cuts its subprefix buckets by the plan's fractions right
/// after the bucket pass, ships the first ranges to their helpers as
/// treelet-range jobs, builds the rest itself and then takes the helpers'
/// results back. Any cut gives the bytes of a local build. With a history
/// (a plan is carried) the build keys every treelet and skips the ones
/// unchanged since the previous step; the fractions then cut only the
/// particles still to build, and skipped buckets join no job.
BatData build_leaf(vmpi::Comm* comm, const ParticleSet& particles,
                   std::span<const std::pair<int, double>> help, const WriterConfig& config,
                   const BuildHistory* history, WriteResult& result) {
    BAT_CHECK(help.empty() || comm != nullptr);
    obs::PhaseSpan span("write.bat_build", &result.timings.bat_build);
    BatBuild build(particles, config.bat, config.pool, &result.timings.bat, history);
    const std::size_t nb = build.num_buckets();
    const std::size_t n = build.work_begin(nb);
    // cut[j]..cut[j+1] is helper j's bucket range; the aggregator keeps the
    // rest. Each cut is the bucket boundary nearest the cumulative fraction
    // of the particles to build.
    std::vector<std::size_t> cut{0};
    double share = 0.0;
    for (const auto& [helper, fraction] : help) {
        share += fraction;
        const auto want = static_cast<std::size_t>(std::llround(std::min(share, 1.0) *
                                                                static_cast<double>(n)));
        std::size_t b = cut.back();
        while (b < nb && build.work_begin(b + 1) <= want) {
            ++b;
        }
        if (b < nb && want > build.work_begin(b) &&
            want - build.work_begin(b) > build.work_begin(b + 1) - want) {
            ++b;  // the next boundary is nearer
        }
        cut.push_back(b);
    }
    // Runs of buckets to build, each of at most kJobParticles (a bigger
    // bucket stands alone); skipped buckets end a run and join none.
    auto slices = [&](std::size_t b0, std::size_t b_end) {
        std::vector<std::pair<std::size_t, std::size_t>> out;
        while (b0 < b_end) {
            if (build.bucket_skipped(b0)) {
                ++b0;
                continue;
            }
            std::size_t b1 = b0 + 1;
            while (b1 < b_end && !build.bucket_skipped(b1) &&
                   build.bucket_begin(b1 + 1) - build.bucket_begin(b0) <= kJobParticles) {
                ++b1;
            }
            out.emplace_back(b0, b1);
            b0 = b1;
        }
        return out;
    };
    // Each helper's range ships as a stream of jobs with at most
    // kJobsInFlight unanswered, refilled as results come back; an empty
    // job ends the stream. The aggregator builds its own range in slices
    // and places the results that arrived between them.
    struct Stream {
        int rank;
        std::vector<std::pair<std::size_t, std::size_t>> jobs;
        std::size_t sent = 0;
        std::size_t placed = 0;
        bool ended = false;  // the empty job went out
    };
    std::vector<Stream> streams;
    for (std::size_t j = 0; j < help.size(); ++j) {
        streams.push_back(Stream{help[j].first, slices(cut[j], cut[j + 1])});
    }
    auto& metrics = obs::MetricsRegistry::global();
    auto send_next = [&](Stream& st) {
        if (st.ended) {
            return;
        }
        if (st.sent < st.jobs.size()) {
            const auto [b0, b1] = st.jobs[st.sent++];
            metrics.counter("write.help_jobs").add(1);
            metrics.counter("write.help_particles")
                .add(build.bucket_begin(b1) - build.bucket_begin(b0));
            comm->isend(st.rank, kTagJob, build.pack_job(b0, b1));
        }
        if (st.sent == st.jobs.size()) {
            comm->isend(st.rank, kTagJob, vmpi::Bytes{});
            st.ended = true;
        }
    };
    // A result is two messages from its helper: treelets, then particles.
    auto place = [&](Stream& st, vmpi::Bytes treelets) {
        TreeletJobResult job_result{std::move(treelets), {}};
        {
            obs::PhaseSpan wait("bat.wait", &result.timings.bat.wait);
            job_result.particles = comm->recv(st.rank, kTagJobResult);
        }
        const auto [b0, b1] = st.jobs[st.placed++];
        build.place_result(b0, b1, job_result);
        send_next(st);
    };
    std::size_t outstanding = 0;
    for (std::size_t k = 0; k < kJobsInFlight; ++k) {
        for (Stream& st : streams) {
            send_next(st);
        }
    }
    for (const Stream& st : streams) {
        outstanding += st.jobs.size();
    }
    // Without helpers the own range is one run (one pool parallel_for).
    const auto own = streams.empty() ? std::vector<std::pair<std::size_t, std::size_t>>{{0, nb}}
                                     : slices(cut.back(), nb);
    for (const auto& [b0, b1] : own) {
        build.run_local(b0, b1);
        for (Stream& st : streams) {
            while (st.placed < st.sent && comm->iprobe(st.rank, kTagJobResult)) {
                place(st, comm->recv(st.rank, kTagJobResult));
                --outstanding;
            }
        }
    }
    // Then the rest, in arrival order: a helper never waits on another.
    for (; outstanding > 0; --outstanding) {
        int from = -1;
        vmpi::Bytes treelets;
        {
            obs::PhaseSpan wait("bat.wait", &result.timings.bat.wait);
            treelets = comm->recv(vmpi::kAnySource, kTagJobResult, &from);
        }
        const auto st = std::find_if(streams.begin(), streams.end(),
                                     [from](const Stream& x) { return x.rank == from; });
        BAT_CHECK_MSG(st != streams.end() && st->placed < st->sent,
                      "unexpected job result from rank " << from);
        place(*st, std::move(treelets));
    }
    return build.finish();
}

/// (c') Serve the treelet-range jobs of heavier aggregators: after this
/// rank's own leaves and before the metadata gather. A heavy rank never
/// helps, so no aggregator waits on a rank that waits on it.
void serve_jobs(vmpi::Comm& comm, const Assignment& assignment, const WriterConfig& config,
                WriteResult& result) {
    if (assignment.leaves_to_help == 0) {
        return;
    }
    obs::PhaseSpan span("write.bat_build", &result.timings.bat_build);
    for (int open = assignment.leaves_to_help; open > 0;) {
        int from = -1;
        vmpi::Bytes job;
        {
            obs::PhaseSpan wait("bat.wait", &result.timings.bat.wait);
            job = comm.recv(vmpi::kAnySource, kTagJob, &from);
        }
        if (job.empty()) {
            --open;  // that aggregator's share of this rank is done
            continue;
        }
        TreeletJobResult built = run_treelet_job(std::move(job), config.pool, &result.timings.bat);
        comm.isend(from, kTagJobResult, std::move(built.treelets));
        comm.isend(from, kTagJobResult, std::move(built.particles));
    }
}

/// (d) Write one leaf's BAT file and return its metadata report. With a
/// plan (`state`), the BAT was built with treelet keys; a treelet is clean
/// when the build skipped it, or when its key, point count and bitmaps
/// equal the previous step's (a treelet whose bin edges moved is built
/// again, but its bitmaps may still match). Clean treelets are written as
/// references into the file that holds their bytes. A leaf whose treelets
/// are ALL clean (and whose attr table + shallow tree match) skips its
/// file entirely — the metadata points at the prior file.
LeafReport write_leaf(int leaf_id, const BatData& bat, const WriterConfig& config,
                      io_detail::WritePlanState* state, WriteResult& result) {
    const std::size_t nattrs = bat.num_attrs();
    LeafReport report;
    report.leaf_id = leaf_id;
    report.num_particles = bat.num_particles();
    report.ranges = bat.attr_ranges;
    report.edges = bat.attr_edges;
    report.root_bitmaps.resize(nattrs);
    for (std::size_t a = 0; a < nattrs; ++a) {
        report.root_bitmaps[a] = bat.root_bitmap(a);
    }

    obs::PhaseSpan span("write.file_write", &result.timings.file_write);
    const std::string own_file = leaf_file_name(config.basename, leaf_id);
    if (state == nullptr) {
        result.bytes_written += write_bat_file(config.directory / own_file, bat);
        return report;
    }

    auto& metrics = obs::MetricsRegistry::global();
    io_detail::LeafDeltaState& st = state->leaves[leaf_id];
    const std::size_t num_treelets = bat.treelets.size();
    std::vector<PreviousTreelet>& prev = st.history.treelets;
    const bool can_delta = !config.delta.force_keyframe && !st.last_file.empty() &&
                           prev.size() == num_treelets;
    BatDeltaSpec spec;
    spec.refs.resize(num_treelets);
    std::map<std::string, std::int32_t> base_ids;
    std::size_t clean = 0;
    std::uint64_t saved = 0;
    int max_age = 0;
    for (std::size_t t = 0; t < num_treelets; ++t) {
        const Treelet& tr = bat.treelets[t];
        if (can_delta && (tr.skipped || (prev[t].key == tr.key &&
                                         prev[t].num_points == tr.num_particles &&
                                         prev[t].bitmaps == tr.bitmaps))) {
            const auto [it, inserted] = base_ids.emplace(
                st.treelet_file[t], static_cast<std::int32_t>(spec.base_files.size()));
            if (inserted) {
                spec.base_files.push_back(st.treelet_file[t]);
            }
            spec.refs[t] = DeltaRef{it->second, st.treelet_index[t]};
            saved += treelet_block_bytes(tr, nattrs);
            ++clean;
        }
    }

    const bool all_clean =
        can_delta && clean == num_treelets && st.attr_ranges == bat.attr_ranges &&
        st.history.attr_edges == bat.attr_edges && st.shallow_bitmaps == bat.shallow_bitmaps &&
        st.shallow_nodes.size() == bat.shallow_nodes.size() &&
        (st.shallow_nodes.empty() ||
         std::memcmp(st.shallow_nodes.data(), bat.shallow_nodes.data(),
                     st.shallow_nodes.size() * sizeof(ShallowNode)) == 0);
    if (all_clean) {
        // Nothing about the leaf changed: keep the prior step's file and
        // record it (plus its base table) in this step's metadata.
        report.file_override = st.last_file;
        report.delta_bases = st.last_file_bases;
        result.leaves_unchanged += 1;
        metrics.counter("write.leaves_unchanged").add(1);
        for (std::size_t t = 0; t < num_treelets; ++t) {
            max_age = std::max(max_age, ++st.ages[t]);
        }
    } else {
        result.bytes_written += write_bat_file(config.directory / own_file, bat,
                                               clean > 0 ? &spec : nullptr);

        prev.resize(num_treelets);
        st.treelet_file.resize(num_treelets);
        st.treelet_index.resize(num_treelets);
        st.ages.resize(num_treelets, 0);
        for (std::size_t t = 0; t < num_treelets; ++t) {
            const Treelet& tr = bat.treelets[t];
            if (!tr.skipped) {
                prev[t] = PreviousTreelet{tr.key, tr.num_particles,
                                          static_cast<std::uint32_t>(tr.nodes.size()),
                                          tr.max_depth, tr.bounds, tr.bitmaps};
            }
            if (spec.refs[t].base_file >= 0) {
                max_age = std::max(max_age, ++st.ages[t]);
            } else {
                st.treelet_file[t] = own_file;
                st.treelet_index[t] = static_cast<std::uint32_t>(t);
                st.ages[t] = 0;
            }
        }
        st.last_file = own_file;
        st.last_file_bases = spec.base_files;
        st.attr_ranges = bat.attr_ranges;
        st.history.attr_edges = bat.attr_edges;
        st.shallow_nodes = bat.shallow_nodes;
        st.shallow_bitmaps = bat.shallow_bitmaps;
        report.delta_bases = spec.base_files;
    }

    result.delta_treelets_clean += clean;
    result.delta_treelets_written += num_treelets - clean;
    result.delta_bytes_saved += saved;
    metrics.counter("write.delta_treelets_clean").add(static_cast<std::int64_t>(clean));
    metrics.counter("write.delta_treelets_written")
        .add(static_cast<std::int64_t>(num_treelets - clean));
    metrics.counter("write.delta_bytes_saved").add(static_cast<std::int64_t>(saved));
    metrics.histogram("write.delta_chain_len", chain_len_bounds())
        .record(static_cast<double>(max_age + 1));
    return report;
}

/// (e) Build the top-level metadata from every leaf's report and save it
/// to result.metadata_path. The metadata file is part of the written
/// volume; leaving it out inflates effective-bandwidth numbers (Fig 5).
void publish_metadata(const Aggregation& agg, const std::vector<std::string>& attr_names,
                      std::vector<LeafReport> reports, const WriterConfig& config,
                      WriteResult& result) {
    std::sort(reports.begin(), reports.end(),
              [](const LeafReport& a, const LeafReport& b) { return a.leaf_id < b.leaf_id; });
    std::vector<std::string> files;
    files.reserve(agg.leaves.size());
    for (std::size_t i = 0; i < agg.leaves.size(); ++i) {
        files.push_back(leaf_file_name(config.basename, static_cast<int>(i)));
    }
    build_metadata(agg, attr_names, reports, files).save(result.metadata_path);
    result.bytes_written += std::filesystem::file_size(result.metadata_path);
}

std::filesystem::path metadata_path(const WriterConfig& config) {
    return config.directory / (config.basename + ".batmeta");
}

}  // namespace

WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config) {
    return write_particles(comm, local, local_bounds, config, nullptr);
}

WriteResult write_particles(vmpi::Comm& comm, const ParticleSet& local,
                            const Box& local_bounds, const WriterConfig& config,
                            WritePlan* plan) {
    WriteResult result;
    io_detail::WritePlanState* state = plan != nullptr ? plan->state_.get() : nullptr;

    Aggregation fresh_agg;  // rank 0, planless path only
    const Assignment assignment =
        plan_write(comm, local, local_bounds, config, state, fresh_agg, result);
    // Rank 0's aggregation lives in the plan when one is carried.
    const Aggregation& agg = state != nullptr ? state->agg : fresh_agg;

    std::vector<LeafInput> leaves = transfer(comm, local, assignment, !result.reused_plan, result);

    std::vector<LeafReport> my_reports;
    std::filesystem::create_directories(config.directory);
    for (std::size_t d = 0; d < leaves.size(); ++d) {
        const LeafDuty& duty = assignment.duties[d];
        // A plan keys every treelet; a delta step also skips the unchanged
        // ones (a keyframe rewrites them all, and a leaf's first step has
        // nothing to compare against).
        const BuildHistory* history = nullptr;
        if (state != nullptr) {
            const io_detail::LeafDeltaState& st = state->leaves[duty.leaf_id];
            history = config.delta.force_keyframe || st.last_file.empty() ? &kNoHistory
                                                                          : &st.history;
        }
        const BatData bat = build_leaf(&comm, leaves[d].particles(local), duty.help, config,
                                       history, result);
        leaves[d] = LeafInput{};  // the merged copy is no longer needed
        my_reports.push_back(write_leaf(duty.leaf_id, bat, config, state, result));
    }
    serve_jobs(comm, assignment, config, result);

    // Reports travel to rank 0, which publishes the metadata.
    obs::PhaseSpan metadata_span("write.metadata", &result.timings.metadata);
    BufferWriter reports_blob;
    reports_blob.write(static_cast<std::uint32_t>(my_reports.size()));
    for (const LeafReport& report : my_reports) {
        const auto bytes = report.to_bytes();
        reports_blob.write(static_cast<std::uint32_t>(bytes.size()));
        reports_blob.write_span(std::span<const std::byte>(bytes));
    }
    std::vector<vmpi::Bytes> gathered = comm.gatherv(reports_blob.take(), 0);
    result.metadata_path = metadata_path(config);
    if (comm.rank() == 0) {
        std::vector<LeafReport> reports;
        for (const vmpi::Bytes& blob : gathered) {
            BufferReader r(blob);
            const auto count = r.read<std::uint32_t>();
            for (std::uint32_t i = 0; i < count; ++i) {
                const auto len = r.read<std::uint32_t>();
                std::vector<std::byte> piece(len);
                r.read_into(std::span<std::byte>(piece));
                reports.push_back(LeafReport::from_bytes(piece));
            }
        }
        publish_metadata(agg, local.attr_names(), std::move(reports), config, result);
    }
    // Everyone learns the metadata path is ready.
    comm.barrier();
    metadata_span.close();

    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("write.bytes_written").add(static_cast<std::int64_t>(result.bytes_written));
    metrics.counter("write.files").add(static_cast<std::int64_t>(my_reports.size()));
    obs::record_rank_value("write.bytes_written", result.bytes_written);
    obs::record_rank_value("write.files", my_reports.size());
    return result;
}

std::uint64_t recommend_target_size(std::uint64_t total_particles,
                                    std::uint64_t bytes_per_particle, int nranks) {
    BAT_CHECK(nranks > 0);
    BAT_CHECK(bytes_per_particle > 0);
    const double per_rank_bytes = static_cast<double>(total_particles) *
                                  static_cast<double>(bytes_per_particle) /
                                  static_cast<double>(nranks);
    // Aggregation factor by scale (paper: 1:1-4:1 at low core or particle
    // counts; 16:1 or higher at larger scales to avoid too many files).
    double factor = 2.0;
    if (nranks > 16384) {
        factor = 32.0;
    } else if (nranks > 4096) {
        factor = 16.0;
    } else if (nranks > 1024) {
        factor = 4.0;
    }
    const double want = std::max(1.0, per_rank_bytes * factor);
    // Round up to a power of two, clamped to a sane file-size window.
    std::uint64_t target = 1 << 20;
    while (target < want && target < (512ull << 20)) {
        target <<= 1;
    }
    return target;
}

WriteResult write_particles_serial(std::span<const ParticleSet> per_rank,
                                   std::span<const Box> rank_bounds,
                                   const WriterConfig& config) {
    BAT_CHECK(per_rank.size() == rank_bounds.size());
    BAT_CHECK(!per_rank.empty());
    WriteResult result;
    std::vector<RankInfo> infos(per_rank.size());
    for (std::size_t r = 0; r < per_rank.size(); ++r) {
        infos[r] = RankInfo{rank_bounds[r], per_rank[r].count()};
    }
    const Aggregation agg = plan_aggregation(infos, config, per_rank[0].bytes_per_particle());
    result.num_leaves = static_cast<int>(agg.leaves.size());

    // Each leaf concatenates its ranks in leaf.ranks order, the order the
    // collective transfer places its senders in. The serial writer never
    // plans help: every leaf builds locally.
    std::filesystem::create_directories(config.directory);
    std::vector<LeafReport> reports;
    for (std::size_t leaf_id = 0; leaf_id < agg.leaves.size(); ++leaf_id) {
        const AggLeaf& leaf = agg.leaves[leaf_id];
        ParticleSet merged(per_rank[0].attr_names());
        merged.reserve(leaf.num_particles);
        for (int r : leaf.ranks) {
            merged.append(per_rank[static_cast<std::size_t>(r)]);
        }
        const BatData bat = build_leaf(nullptr, merged, {}, config, nullptr, result);
        reports.push_back(write_leaf(static_cast<int>(leaf_id), bat, config, nullptr, result));
    }
    result.metadata_path = metadata_path(config);
    publish_metadata(agg, per_rank[0].attr_names(), std::move(reports), config, result);
    return result;
}

}  // namespace bat
