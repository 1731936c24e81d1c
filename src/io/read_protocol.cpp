#include "io/read_protocol.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "io/leaf_cache.hpp"
#include "io/reader.hpp"
#include "obs/trace.hpp"
#include "sched/sched.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bat::io_detail {

namespace {

// ---- wire format -----------------------------------------------------------

struct LeafRequest {
    /// Client-chosen id echoed by the response (index into the client's
    /// outstanding-request table).
    std::uint32_t seq = 0;
    std::vector<std::int32_t> leaves;
    BatQuery query;
    /// Originating query identity, carried on the wire so the serving rank
    /// attributes its leaf evaluations (spans, cache notes, pool time) to
    /// the query that asked, not to the rank doing the work.
    obs::QueryContext ctx;
};

static_assert(sizeof(Box) == 6 * sizeof(float), "Box travels as six packed floats");

void write_query(BufferWriter& w, const BatQuery& query) {
    w.write(static_cast<std::uint8_t>(query.box.has_value()));
    if (query.box) {
        w.write(*query.box);  // six floats: lower xyz, upper xyz
    }
    w.write(static_cast<std::uint32_t>(query.attr_filters.size()));
    for (const AttrFilter& f : query.attr_filters) {
        w.write(f.attr);
        w.write(f.lo);
        w.write(f.hi);
    }
    w.write(query.quality_lo);
    w.write(query.quality_hi);
    w.write(static_cast<std::uint8_t>(query.inclusive_upper));
}

BatQuery read_query(BufferReader& r) {
    BatQuery query;
    if (r.read<std::uint8_t>() != 0) {
        query.box = r.read<Box>();
    }
    query.attr_filters.resize(r.read<std::uint32_t>());
    for (AttrFilter& f : query.attr_filters) {
        f.attr = r.read<std::uint32_t>();
        f.lo = r.read<double>();
        f.hi = r.read<double>();
    }
    query.quality_lo = r.read<float>();
    query.quality_hi = r.read<float>();
    query.inclusive_upper = r.read<std::uint8_t>() != 0;
    return query;
}

vmpi::Bytes encode_request(const LeafRequest& req) {
    BufferWriter w;
    w.write(req.seq);
    w.write(req.ctx.trace_id);
    w.write(req.ctx.origin_rank);
    w.write(req.ctx.seq);
    w.write(static_cast<std::uint32_t>(req.leaves.size()));
    w.write_span(std::span<const std::int32_t>(req.leaves));
    write_query(w, req.query);
    return w.take();
}

LeafRequest decode_request(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    LeafRequest req;
    req.seq = r.read<std::uint32_t>();
    req.ctx.trace_id = r.read<std::uint64_t>();
    req.ctx.origin_rank = r.read<std::int32_t>();
    req.ctx.seq = r.read<std::uint32_t>();
    req.leaves.resize(r.read<std::uint32_t>());
    r.read_into(std::span<std::int32_t>(req.leaves));
    req.query = read_query(r);
    BAT_CHECK_MSG(r.remaining() == 0, "trailing bytes in leaf request");
    return req;
}

/// parts[i] is the serialized ParticleSet payload for the request's i-th
/// leaf. An empty part means the server failed on that leaf (the error is
/// rethrown server-side; clients skip empty parts).
vmpi::Bytes encode_response(std::uint32_t seq, std::span<const vmpi::Bytes> parts) {
    std::size_t payload = 0;
    for (const vmpi::Bytes& part : parts) {
        payload += part.size();
    }
    BufferWriter w(sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * parts.size() +
                   payload);
    w.write(seq);
    w.write(static_cast<std::uint32_t>(parts.size()));
    for (const vmpi::Bytes& part : parts) {
        w.write(static_cast<std::uint64_t>(part.size()));
    }
    for (const vmpi::Bytes& part : parts) {
        w.write_span(std::span<const std::byte>(part));
    }
    return w.take();
}

/// The parts of a response payload, as views into it.
std::vector<std::span<const std::byte>> decode_response(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    r.read<std::uint32_t>();  // seq
    const auto num_parts = r.read<std::uint32_t>();
    std::vector<std::uint64_t> lengths(num_parts);
    r.read_into(std::span<std::uint64_t>(lengths));
    std::vector<std::span<const std::byte>> parts;
    parts.reserve(num_parts);
    std::size_t at = r.pos();
    for (const std::uint64_t len : lengths) {
        BAT_CHECK_MSG(at + len <= bytes.size(), "response part past the payload");
        parts.push_back(bytes.subspan(at, len));
        at += len;
    }
    BAT_CHECK_MSG(at == bytes.size(), "trailing bytes in leaf response");
    return parts;
}

/// The seq of a response payload without decoding the parts.
std::uint32_t peek_response_seq(std::span<const std::byte> bytes) {
    BufferReader r(bytes);
    return r.read<std::uint32_t>();
}

/// Merge response payloads into `out` in the given order with one resize
/// and ParticleSet::deserialize_into per part — no intermediate sets.
void merge_responses(ParticleSet& out, std::span<const vmpi::Bytes> payloads) {
    if (sched::maybe_active()) {
        // The merged result buffer is rank-local by design; the annotation
        // catches any future schedule where two threads merge into one set.
        sched::note_access(&out, "read.merged_particles", /*is_write=*/true);
    }
    std::vector<std::vector<std::span<const std::byte>>> responses;
    responses.reserve(payloads.size());
    std::uint64_t total = 0;
    for (const vmpi::Bytes& payload : payloads) {
        responses.push_back(decode_response(payload));
        for (const std::span<const std::byte> part : responses.back()) {
            if (part.empty()) {
                continue;
            }
            // Each part leads with its u64 particle count (ParticleSet wire
            // format); summing them lets us size the result once.
            total += BufferReader(part).read<std::uint64_t>();
        }
    }
    std::size_t at = out.count();
    out.resize(at + total);
    for (const auto& parts : responses) {
        for (const std::span<const std::byte> part : parts) {
            if (part.empty()) {
                continue;
            }
            at += out.deserialize_into(part, at);
        }
    }
}

// ---- serving ---------------------------------------------------------------

/// Opens one leaf file of the round's data set through its cache, adding
/// the bytes of cache misses to `*bytes_read`.
std::shared_ptr<const BatFile> open_leaf(const RoundSetup& setup, std::int32_t leaf,
                                         std::atomic<std::uint64_t>* bytes_read) {
    BAT_CHECK_MSG(leaf >= 0 && static_cast<std::size_t>(leaf) < setup.meta.leaves.size(),
                  "leaf id out of range in leaf request");
    return setup.cache.open(setup.dir / setup.meta.leaves[static_cast<std::size_t>(leaf)].file,
                            bytes_read);
}

/// Serves the coalesced leaf requests arriving on setup.request_tag,
/// answering on setup.response_tag. Each progress() call drains every
/// iprobe-able request, fans its leaf evaluations to setup.pool (nullptr or
/// zero workers = evaluate inline, the serial path), and isends any
/// response whose last part has finished. Responses leave in
/// per-destination request order only as a side effect of job scan order;
/// correctness rests on seq keying, not ordering.
class LeafServer {
public:
    /// Leaf evaluations run on pool workers: they never touch the Comm, and
    /// only add to `bytes_read` atomically. The comm thread counts what it
    /// serves into `out` (requests_served, leaves_served, bytes_shipped).
    LeafServer(const RoundSetup& setup, std::atomic<std::uint64_t>& bytes_read,
               RoundResult& out);

    /// Drain requests, send finished responses. Returns true if any message
    /// moved (the caller's loop yields otherwise).
    bool progress();

    /// Run one queued pool task on the calling (comm) thread. Called by the
    /// serve loop when progress() moved nothing: instead of yielding its
    /// timeslice the comm thread helps compute leaf responses, which keeps
    /// the pooled path from losing to serial serving on starved machines.
    /// Returns false when serving inline or the pool queue was empty.
    bool help();

    /// No response is still being computed or waiting to be sent.
    bool idle() const { return jobs_.empty(); }

    /// Wait out remaining worker tasks, send the last responses, and
    /// rethrow the first leaf-evaluation error, if any. Call after the round
    /// barrier completes (at which point no new request can arrive).
    void finish();

private:
    struct Job {
        int src = -1;
        LeafRequest req;
        std::vector<vmpi::Bytes> parts;
        std::atomic<std::size_t> remaining{0};
    };

    void start_job(int src, const vmpi::Bytes& payload);
    bool send_ready();

    const RoundSetup& setup_;
    std::atomic<std::uint64_t>& bytes_read_;
    RoundResult& out_;
    ThreadPool* pool_;
    std::optional<TaskGroup> group_;
    std::vector<std::unique_ptr<Job>> jobs_;
    std::mutex err_mutex_;
    std::exception_ptr first_error_;
};

LeafServer::LeafServer(const RoundSetup& setup, std::atomic<std::uint64_t>& bytes_read,
                       RoundResult& out)
    : setup_(setup),
      bytes_read_(bytes_read),
      out_(out),
      pool_(setup.pool != nullptr && setup.pool->num_threads() > 0 ? setup.pool : nullptr) {
    if (pool_ != nullptr) {
        group_.emplace(*pool_);
    }
}

void LeafServer::start_job(int src, const vmpi::Bytes& payload) {
    auto job = std::make_unique<Job>();
    job->src = src;
    job->req = decode_request(payload);
    const std::size_t n = job->req.leaves.size();
    job->parts.resize(n);
    job->remaining.store(n, std::memory_order_relaxed);
    ++out_.requests_served;
    out_.leaves_served += n;
    // Accepting a request is progress even while the leaf jobs are still in
    // flight — a serving rank stuck behind a slow peer stays "live".
    const int serve_rank = setup_.comm.rank();
    obs::note_leaves_served(serve_rank, n);
    Job* j = job.get();
    jobs_.push_back(std::move(job));
    // The serving rank adopts the originating query's identity for each leaf
    // evaluation: the scope here makes ThreadPool capture it at enqueue, and
    // the scope inside the task covers inline and work-helping execution.
    obs::QueryScope enqueue_scope(j->req.ctx);
    for (std::size_t i = 0; i < n; ++i) {
        auto task = [this, j, i, serve_rank] {
            const obs::QueryContext& ctx = j->req.ctx;
            obs::QueryScope qscope(ctx);
            const bool traced = obs::trace_enabled();
            if (traced) {
                if (ctx.valid()) {
                    obs::emit_begin_arg("read.serve_leaf", "read", "qtrace",
                                        static_cast<std::int64_t>(ctx.trace_id));
                } else {
                    obs::emit_begin("read.serve_leaf", "read");
                }
            }
            const bool tracked = obs::span_tracking_enabled();
            if (tracked) {
                obs::health_detail::push_span("read.serve_leaf");
            }
            std::uint64_t hits0 = 0;
            std::uint64_t misses0 = 0;
            obs::query_thread_cache_counts(&hits0, &misses0);
            const std::uint64_t t0 = obs::trace_now_ns();
            try {
                ParticleSet part(setup_.meta.attr_names);
                query_bat(*open_leaf(setup_, j->req.leaves[i], &bytes_read_), j->req.query,
                          particle_sink(part));
                j->parts[i] = part.to_bytes();
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex_);
                if (!first_error_) {
                    first_error_ = std::current_exception();
                }
            }
            const std::uint64_t t1 = obs::trace_now_ns();
            if (tracked) {
                obs::health_detail::pop_span();
            }
            if (traced) {
                obs::emit_end("read.serve_leaf", "read");
            }
            if (ctx.valid()) {
                std::uint64_t hits1 = 0;
                std::uint64_t misses1 = 0;
                obs::query_thread_cache_counts(&hits1, &misses1);
                obs::QueryServeSpan span;
                span.trace_id = ctx.trace_id;
                span.origin_rank = ctx.origin_rank;
                span.query_seq = ctx.seq;
                span.serve_rank = serve_rank;
                span.leaf = j->req.leaves[i];
                span.start_ns = t0;
                span.dur_ns = t1 - t0;
                span.bytes = j->parts[i].size();
                span.cache_hit = hits1 > hits0 && misses1 == misses0;
                // Recorded before the release decrement below: once the
                // origin has this job's response, the span is visible in the
                // process-wide ring — query_finalize never races it.
                obs::query_record_serve_span(span);
            }
            // Release pairs with the acquire load in send_ready(): the comm
            // thread must see the finished part bytes.
            j->remaining.fetch_sub(1, std::memory_order_release);
        };
        if (group_) {
            group_->run(std::move(task));
        } else {
            task();
        }
    }
}

bool LeafServer::send_ready() {
    bool sent = false;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
        Job& job = **it;
        if (job.remaining.load(std::memory_order_acquire) != 0) {
            ++it;
            continue;
        }
        vmpi::Bytes response = encode_response(job.req.seq, job.parts);
        out_.bytes_shipped += response.size();
        setup_.comm.isend(job.src, setup_.response_tag, std::move(response));
        it = jobs_.erase(it);
        sent = true;
    }
    return sent;
}

bool LeafServer::progress() {
    bool progressed = false;
    int src = -1;
    while (setup_.comm.iprobe(vmpi::kAnySource, setup_.request_tag, &src)) {
        progressed = true;
        start_job(src, setup_.comm.recv(src, setup_.request_tag));
    }
    if (send_ready()) {
        progressed = true;
    }
    return progressed;
}

bool LeafServer::help() {
    return pool_ != nullptr && pool_->try_run_one();
}

void LeafServer::finish() {
    if (group_) {
        group_->wait();
    }
    send_ready();
    BAT_CHECK_MSG(jobs_.empty(), "LeafServer finished with unsent responses");
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lock(err_mutex_);
        std::swap(err, first_error_);
    }
    if (err) {
        std::rethrow_exception(err);
    }
}

}  // namespace

RoundResult run_query_round(const RoundSetup& setup, const RoundQuery& q,
                            ReadPhaseTimings* timings) {
    vmpi::Comm& comm = setup.comm;
    RoundResult out;
    out.particles = ParticleSet(setup.meta.attr_names);

    // Each stage boundary is one stamp, shared by the phase span (when the
    // caller keeps ReadPhaseTimings) and the QueryRecord stages.
    std::optional<obs::PhaseSpan> phase;
    std::uint64_t stamp = q.request_start_ns;
    const auto begin_stage = [&](const char* name, double ReadPhaseTimings::*row) {
        if (timings != nullptr) {
            phase.emplace(name, &(timings->*row), stamp);
        }
    };
    const auto end_stage = [&] {
        stamp = phase ? phase->close() : obs::trace_now_ns();
        return stamp;
    };

    // ---- request: one coalesced message per distinct remote aggregator, in
    // first-appearance order over the ascending leaf list ---------------------
    begin_stage("read.request", &ReadPhaseTimings::request);
    std::vector<int> local_leaves;  // leaves this rank serves to itself
    std::vector<LeafRequest> requests;
    std::map<int, std::size_t> request_of_aggregator;  // aggregator -> seq
    std::uint32_t leaves_remote = 0;
    for (int leaf : q.leaves) {
        const int aggregator = setup.leaf_aggregator[static_cast<std::size_t>(leaf)];
        if (aggregator == comm.rank()) {
            local_leaves.push_back(leaf);
            continue;
        }
        const auto [it, fresh] = request_of_aggregator.try_emplace(aggregator, requests.size());
        if (fresh) {
            requests.push_back({static_cast<std::uint32_t>(requests.size()), {}, q.query, q.ctx});
        }
        requests[it->second].leaves.push_back(leaf);
        ++leaves_remote;
    }
    for (const auto& [aggregator, seq] : request_of_aggregator) {
        comm.isend(aggregator, setup.request_tag, encode_request(requests[seq]));
    }
    const std::uint64_t request_done_ns = end_stage();

    // ---- serve: answer requests for our leaves until the round barrier ------
    begin_stage("read.serve", &ReadPhaseTimings::serve);
    std::atomic<std::uint64_t> bytes_read{0};
    LeafServer server(setup, bytes_read, out);
    // Buffered raw responses, slotted by request seq: ingestion order below
    // is the request-issue order, independent of arrival order.
    std::vector<vmpi::Bytes> responses(requests.size());
    std::size_t pending = requests.size();
    std::optional<vmpi::Request> barrier;  // entered once every response is in
    if (pending == 0) {
        barrier = comm.ibarrier();
    }
    for (;;) {
        bool progressed = server.progress();
        int src = -1;
        if (pending > 0 && comm.iprobe(vmpi::kAnySource, setup.response_tag, &src)) {
            progressed = true;
            vmpi::Bytes payload = comm.recv(src, setup.response_tag);
            const std::uint32_t seq = peek_response_seq(payload);
            BAT_CHECK_MSG(seq < responses.size() && responses[seq].empty(),
                          "unexpected response seq " << seq);
            responses[seq] = std::move(payload);
            if (--pending == 0) {
                barrier = comm.ibarrier();
            }
        }
        if (barrier && server.idle() && barrier->test()) {
            break;
        }
        if (!progressed && !server.help()) {
            std::this_thread::yield();
        }
    }
    server.finish();
    const std::uint64_t serve_done_ns = end_stage();

    // ---- merge: zero-copy ingestion in request order ------------------------
    begin_stage("read.merge", &ReadPhaseTimings::merge);
    merge_responses(out.particles, responses);
    const std::uint64_t merge_done_ns = end_stage();

    // ---- local: self-queries after exiting the server loop (§IV-B) ----------
    begin_stage("read.local", &ReadPhaseTimings::local);
    const QuerySink sink = particle_sink(out.particles);
    for (int leaf : local_leaves) {
        query_bat(*open_leaf(setup, leaf, &bytes_read), q.query, sink);
    }
    const std::uint64_t end_ns = end_stage();

    out.request_msgs = requests.size();
    out.bytes_read = bytes_read.load(std::memory_order_relaxed);
    out.wall_ns = end_ns - q.start_ns;

    obs::QueryRecord rec;
    rec.trace_id = q.ctx.trace_id;
    rec.origin_rank = q.ctx.origin_rank;
    rec.seq = q.ctx.seq;
    rec.op = setup.op;
    rec.start_ns = q.start_ns;
    rec.wall_ns = out.wall_ns;
    // Anything the caller did before the engine (metadata load, leaf
    // selection) is folded into the request stage, so the four stages tile
    // the wall time exactly.
    rec.request_ns = request_done_ns - q.start_ns;
    rec.serve_ns = serve_done_ns - request_done_ns;
    rec.merge_ns = merge_done_ns - serve_done_ns;
    rec.local_ns = end_ns - merge_done_ns;
    rec.leaves_local = static_cast<std::uint32_t>(local_leaves.size());
    rec.leaves_remote = leaves_remote;
    rec.request_msgs = static_cast<std::uint32_t>(requests.size());
    for (const vmpi::Bytes& payload : responses) {
        rec.bytes_moved += payload.size();
    }
    rec.particles = out.particles.count();
    obs::query_finalize(rec);
    return out;
}

}  // namespace bat::io_detail
