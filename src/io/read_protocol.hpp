#pragma once
// The query-round engine: the one client–server protocol behind both the
// parallel restart read (io/reader, read_particles) and the in situ
// DataService (io/data_service, query_round) — paper §IV-A/B. The two entry
// points differ only in how they pick leaves and which tags they talk on;
// everything below is shared.
//
// A round runs four stages on every rank:
//
//   request — the leaves a rank needs from the same read aggregator go out
//     as ONE coalesced message carrying the leaf-id list, the query and the
//     query's trace identity, so message count is O(aggregators), not
//     O(overlapped leaves). Each request carries a client-chosen `seq`.
//   serve — the rank serves incoming requests for its own leaves while
//     collecting its responses. Leaf evaluations fan out to a ThreadPool
//     (when one is given) while the comm thread keeps progressing probes
//     and, when idle, helps run queued evaluations; workers only fill byte
//     buffers, every vmpi call stays on the comm thread. A response packs
//     one serialized ParticleSet per requested leaf, in request order, and
//     echoes `seq`. Once a rank holds all of its responses it enters a
//     nonblocking barrier and keeps serving until the barrier completes.
//   merge — responses are ingested in request (seq) order with one resize,
//     so the result is byte-identical whatever the arrival order or thread
//     schedule.
//   local — self-queries on the rank's own leaves run after the loop.
//
// Remote serves and local queries both emit through particle_sink, so the
// fully-contained fast path bulk-appends treelet windows on either side.
// Each stage boundary is stamped once: the same stamps give the
// ReadPhaseTimings rows (read.* phase spans) and the QueryRecord stages,
// which tile the record's wall time exactly.

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/bat_query.hpp"
#include "core/metadata.hpp"
#include "core/particles.hpp"
#include "obs/query_trace.hpp"
#include "vmpi/comm.hpp"

namespace bat {

class LeafFileCache;
class ThreadPool;
struct ReadPhaseTimings;

namespace io_detail {

/// The fixed side of a round: the comm and tags it talks on, the data set,
/// and which rank serves each leaf.
struct RoundSetup {
    vmpi::Comm& comm;
    int request_tag;
    int response_tag;
    const Metadata& meta;
    std::filesystem::path dir;             // directory holding the leaf files
    std::span<const int> leaf_aggregator;  // serving rank per leaf
    LeafFileCache& cache;
    ThreadPool* pool;  // nullptr = serve inline on the comm thread
    const char* op;    // QueryRecord op (string literal)
};

/// This rank's part of one round.
struct RoundQuery {
    /// Minted by the caller, which also installs it (obs::QueryScope).
    obs::QueryContext ctx;
    /// The query began: the QueryRecord's start.
    std::uint64_t start_ns = 0;
    /// The request stage begins (after any metadata load the caller did);
    /// the caller's leaf selection is counted in the request stage.
    std::uint64_t request_start_ns = 0;
    /// Leaves to read, ascending; empty = take part without asking.
    std::vector<int> leaves;
    BatQuery query;
};

struct RoundResult {
    ParticleSet particles;
    std::uint64_t request_msgs = 0;     // coalesced requests this rank sent
    std::uint64_t requests_served = 0;  // requests it answered as aggregator
    std::uint64_t leaves_served = 0;
    std::uint64_t bytes_shipped = 0;  // response bytes it sent
    std::uint64_t bytes_read = 0;     // leaf-file bytes it opened
    std::uint64_t wall_ns = 0;
};

/// Collective over setup.comm: run one round and finalize its QueryRecord.
/// With `timings` set, the stages are also read.request / read.serve /
/// read.merge / read.local phase spans accumulating into it.
RoundResult run_query_round(const RoundSetup& setup, const RoundQuery& query,
                            ReadPhaseTimings* timings = nullptr);

}  // namespace io_detail
}  // namespace bat
