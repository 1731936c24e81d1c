#pragma once
// Distributed in situ data access (paper §IV-B: "This query mechanism can
// also be leveraged to enable distributed data access for in situ
// analytics").
//
// A DataService is the second entry point to the query-round engine
// (io/read_protocol) that read_particles uses: every rank acts as a data
// server for the leaf files assigned to it (read-aggregator assignment,
// §IV-A), and any rank can pose full BAT queries — spatial box, attribute
// filters, progressive quality windows — against the whole data set. Each
// query_round() is a collective in which every rank submits one query
// (possibly an empty one) and receives its matching particles; servers keep
// serving until a nonblocking barrier confirms that every rank got its
// responses. The service only selects leaves (through the metadata's
// spatial and attribute pruning); requests are coalesced per aggregator,
// leaves are evaluated through the same fast-path sink, and results are
// byte-identical between serial and pooled serving, exactly as for
// read_particles.

#include <filesystem>
#include <optional>

#include "core/bat_query.hpp"
#include "core/metadata.hpp"
#include "vmpi/comm.hpp"

namespace bat {

class LeafFileCache;
class ThreadPool;

class DataService {
public:
    /// Collective: every rank of `comm` constructs the service against the
    /// same metadata file. `pool` (optional) serves leaf queries on worker
    /// threads; `cache` (optional) overrides the process-global leaf-file
    /// cache.
    DataService(vmpi::Comm& comm, const std::filesystem::path& metadata_path,
                ThreadPool* pool = nullptr, LeafFileCache* cache = nullptr);

    const Metadata& metadata() const { return meta_; }

    /// Collective: run one query round. Ranks that want nothing this round
    /// pass std::nullopt. Returns this rank's matching particles (in file
    /// attribute order).
    ParticleSet query_round(const std::optional<BatQuery>& query);

    /// Leaves this rank serves.
    const std::vector<int>& served_leaves() const { return my_leaves_; }

private:
    vmpi::Comm& comm_;
    std::filesystem::path dir_;
    Metadata meta_;
    ThreadPool* pool_;
    LeafFileCache* cache_;
    std::vector<int> leaf_aggregator_;  // per leaf
    std::vector<int> my_leaves_;
};

}  // namespace bat
