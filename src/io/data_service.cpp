#include "io/data_service.hpp"

#include "io/leaf_cache.hpp"
#include "io/read_protocol.hpp"
#include "io/reader.hpp"
#include "obs/metrics.hpp"
#include "obs/query_trace.hpp"
#include "obs/trace.hpp"

namespace bat {

namespace {

constexpr int kTagServiceRequest = 4;
constexpr int kTagServiceResponse = 5;

}  // namespace

DataService::DataService(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                         ThreadPool* pool, LeafFileCache* cache)
    : comm_(comm),
      dir_(metadata_path.parent_path()),
      meta_(Metadata::load(metadata_path)),
      pool_(pool),
      cache_(cache != nullptr ? cache : &LeafFileCache::global()) {
    leaf_aggregator_ =
        assign_read_aggregators(static_cast<int>(meta_.leaves.size()), comm.size());
    for (std::size_t leaf = 0; leaf < leaf_aggregator_.size(); ++leaf) {
        if (leaf_aggregator_[leaf] == comm.rank()) {
            my_leaves_.push_back(static_cast<int>(leaf));
        }
    }
}

ParticleSet DataService::query_round(const std::optional<BatQuery>& query) {
    BAT_TRACE_SCOPE_CAT("service.query_round", "service");
    // This round is one query: mint its identity and install it for the
    // whole round; the engine ships it inside every leaf request so remote
    // serves attribute to it too.
    io_detail::RoundQuery q;
    q.ctx = obs::query_begin(comm_.rank());
    obs::QueryScope qscope(q.ctx);
    q.start_ns = obs::trace_now_ns();
    q.request_start_ns = q.start_ns;
    if (query) {
        q.leaves = meta_.query_leaves(query->box, query->attr_filters);
        q.query = *query;
    }
    io_detail::RoundResult round = io_detail::run_query_round(
        {comm_, kTagServiceRequest, kTagServiceResponse, meta_, dir_, leaf_aggregator_,
         *cache_, pool_, "service.query_round"},
        q);

    obs::record_rank_value("service.particles_served", round.particles.count());
    obs::record_rank_value("service.bytes_shipped", round.bytes_shipped);
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter("service.rounds").add(1);
    metrics.counter("service.particles_served")
        .add(static_cast<std::int64_t>(round.particles.count()));
    metrics.counter("service.bytes_shipped")
        .add(static_cast<std::int64_t>(round.bytes_shipped));
    metrics.counter("service.request_msgs").add(static_cast<std::int64_t>(round.request_msgs));
    metrics.histogram("service.round_us").record(static_cast<double>(round.wall_ns) / 1e3);
    return std::move(round.particles);
}

}  // namespace bat
