#pragma once
// Virtual MPI: an in-process message-passing runtime.
//
// The paper's I/O library is built on MPI nonblocking point-to-point calls,
// collectives, and MPI_Ibarrier (used by the client–server read loop,
// paper §IV-B). This module provides the same semantics with ranks running
// as threads of one process and messages passed through per-rank mailboxes:
//
//   - isend / irecv with (source, tag) matching, MPI-like FIFO ordering per
//     (source, destination, tag) channel, and ANY_SOURCE receives;
//   - iprobe, for server loops that poll for incoming queries;
//   - barrier and a true nonblocking ibarrier;
//   - gather(v) / scatter(v) / bcast / allreduce built over point-to-point.
//
// Sends are buffered (the payload is moved/copied into the destination
// mailbox immediately), so send requests complete instantly — the same
// guarantee simulations rely on for small-to-moderate MPI_Isend payloads,
// and a semantics under which no paper algorithm here can deadlock.
//
// Protocol misuse (leaked requests, reserved tags, size-mismatched typed
// receives, starved mailbox messages, genuine wait deadlocks) is caught by
// the opt-in validator — see vmpi/validator.hpp and docs/CORRECTNESS.md.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sched/sched.hpp"
#include "util/check.hpp"
#include "util/lock_order.hpp"
#include "vmpi/validator.hpp"

namespace bat::vmpi {

using Bytes = std::vector<std::byte>;

/// Wildcard source for irecv/iprobe.
inline constexpr int kAnySource = -1;

/// User point-to-point tags must be below this; tags at or above it are
/// reserved for collectives.
inline constexpr int kMaxUserTag = 1 << 20;

class Runtime;
class Comm;

/// Thrown out of a blocking wait or a probe once another rank's body has
/// thrown: the failed rank may never send what this one waits for, so the
/// survivors unwind instead of spinning. Runtime::run rethrows the failed
/// rank's original exception, not this one.
class PeerFailureError : public Error {
public:
    explicit PeerFailureError(const std::string& what) : Error(what) {}
};

/// Completion handle for a nonblocking operation. Requests are cheap,
/// movable handles; test() polls, wait() blocks (yield-spinning).
class Request {
public:
    Request() = default;

    /// True once the operation has completed. Idempotent.
    bool test();
    /// Block until complete. Throws PeerFailureError once another rank
    /// has failed. Under an enabled validator, throws DeadlockError once
    /// the deadlock detector declares no event can complete this request
    /// (instead of spinning forever).
    void wait();
    bool valid() const { return impl_ != nullptr; }

private:
    friend class Comm;
    struct Impl {
        // Returns true when the operation is complete; called under no lock.
        std::function<bool()> poll;
        bool done = false;
        // Validator bookkeeping; null when validation is disabled.
        std::shared_ptr<Validator> validator;
        // The runtime's abort flag (set once a rank's body throws); null
        // for requests that are complete on creation.
        std::shared_ptr<const std::atomic<bool>> aborted;
        int rank = -1;
        std::string desc;
        // Structured blocked-on fields for the stall watchdog: set on every
        // request (three plain stores, unlike `desc` which allocates and is
        // only built for the validator). op is a string literal or null.
        const char* block_op = nullptr;
        int block_peer = -1;
        int block_tag = -1;

        Impl() = default;
        Impl(const Impl&) = delete;
        Impl& operator=(const Impl&) = delete;
        ~Impl() {
            if (validator != nullptr && !done) {
                validator->report(DiagKind::leaked_request, rank,
                                  "request destroyed before completing: " + desc);
            }
        }
    };
    explicit Request(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
    std::shared_ptr<Impl> impl_;
};

/// Wait for every request in `reqs` to complete.
void wait_all(std::span<Request> reqs);

/// One rank's endpoint. Obtained from Runtime; all methods are called from
/// the rank's own thread.
class Comm {
public:
    int rank() const { return rank_; }
    int size() const;

    // ---- point-to-point -------------------------------------------------
    /// Buffered nonblocking send; the returned request is already complete.
    Request isend(int dst, int tag, Bytes payload);
    Request isend(int dst, int tag, std::span<const std::byte> payload);

    /// Nonblocking receive into `out` (resized to the message length on
    /// completion). `src` may be kAnySource. If `from` is non-null it
    /// receives the actual source rank on completion.
    Request irecv(int src, int tag, Bytes& out, int* from = nullptr);

    /// Blocking convenience wrappers.
    void send(int dst, int tag, std::span<const std::byte> payload);
    Bytes recv(int src, int tag, int* from = nullptr);

    /// Nonblocking probe: true if a matching message is waiting; fills
    /// `from`/`bytes` if provided. Does not consume the message. Throws
    /// PeerFailureError once another rank has failed (server loops poll).
    bool iprobe(int src, int tag, int* from = nullptr, std::size_t* bytes = nullptr);

    // ---- typed helpers --------------------------------------------------
    template <typename T>
    Request isend_value(int dst, int tag, const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        Bytes b(sizeof(T));
        std::memcpy(b.data(), &v, sizeof(T));
        return isend(dst, tag, std::move(b));
    }

    template <typename T>
    T recv_value(int src, int tag, int* from = nullptr) {
        static_assert(std::is_trivially_copyable_v<T>);
        const Bytes b = recv(src, tag, from);
        if (b.size() != sizeof(T)) {
            report_size_mismatch("recv_value", src, tag, b.size(), sizeof(T));
        }
        BAT_CHECK(b.size() == sizeof(T));
        T v;
        std::memcpy(&v, b.data(), sizeof(T));
        return v;
    }

    template <typename T>
    Request isend_vector(int dst, int tag, std::span<const T> v) {
        static_assert(std::is_trivially_copyable_v<T>);
        Bytes b(v.size_bytes());
        if (!v.empty()) {
            std::memcpy(b.data(), v.data(), v.size_bytes());
        }
        return isend(dst, tag, std::move(b));
    }

    template <typename T>
    std::vector<T> recv_vector(int src, int tag, int* from = nullptr) {
        static_assert(std::is_trivially_copyable_v<T>);
        const Bytes b = recv(src, tag, from);
        if (b.size() % sizeof(T) != 0) {
            report_size_mismatch("recv_vector", src, tag, b.size(), sizeof(T));
        }
        BAT_CHECK(b.size() % sizeof(T) == 0);
        std::vector<T> v(b.size() / sizeof(T));
        if (!v.empty()) {
            std::memcpy(v.data(), b.data(), b.size());
        }
        return v;
    }

    // ---- collectives (must be called by all ranks, in the same order) ---
    void barrier();
    /// Nonblocking barrier: the request completes once every rank has
    /// entered the same ibarrier invocation.
    Request ibarrier();

    /// Gather fixed-size values to root; returns size() values on root,
    /// empty elsewhere.
    template <typename T>
    std::vector<T> gather(const T& v, int root);

    /// Gather variable-length byte payloads to root.
    std::vector<Bytes> gatherv(Bytes payload, int root);

    /// Scatter one payload per rank from root; returns this rank's payload.
    Bytes scatterv(std::vector<Bytes> payloads, int root);

    /// Broadcast root's payload to all ranks.
    Bytes bcast(Bytes payload, int root);

    /// All-reduce with a binary op over fixed-size values.
    template <typename T, typename Op>
    T allreduce(const T& v, Op op);

    /// All ranks receive every rank's payload (gatherv + bcast semantics).
    std::vector<Bytes> allgatherv(Bytes payload);

    /// Personalized all-to-all: send payloads[r] to rank r, receive one
    /// payload from every rank.
    std::vector<Bytes> alltoallv(std::vector<Bytes> payloads);

private:
    friend class Runtime;
    Comm(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}

    int next_collective_tag();
    /// The runtime's validator, or null when validation is disabled.
    Validator* validator() const;
    void report_size_mismatch(const char* op, int src, int tag, std::size_t got,
                              std::size_t expected);

    Runtime* rt_ = nullptr;
    int rank_ = 0;
    std::uint32_t collective_seq_ = 0;
    std::uint64_t ibarrier_seq_ = 0;
};

/// Owns the mailboxes and launches rank threads.
class Runtime {
public:
    /// Run `fn(comm)` on `nranks` ranks, each on its own thread. Rethrows
    /// the first exception raised by any rank, after all ranks joined: the
    /// first failure sets an abort flag that makes every other rank's
    /// blocking waits and probes throw PeerFailureError, so no survivor
    /// spins on a message the failed rank will never send. Protocol
    /// validation is off unless BAT_VMPI_VALIDATE is set in the
    /// environment, in which case diagnostics are logged as warnings at
    /// finalize.
    static void run(int nranks, const std::function<void(Comm&)>& fn);

    /// Run with the protocol validator enabled and return its report.
    /// Unlike run(), rank exceptions are recorded in the report
    /// (rank_errors / deadlock) rather than rethrown, so deliberately buggy
    /// programs can be post-mortemed without hanging or aborting the
    /// caller.
    static ValidationReport run_validated(int nranks, const std::function<void(Comm&)>& fn,
                                          ValidatorOptions opts = {});

    int size() const { return nranks_; }

    ~Runtime();

private:
    friend class Comm;
    friend class Request;

    Runtime(int nranks, ValidatorOptions opts);

    static ValidationReport run_impl(int nranks, const std::function<void(Comm&)>& fn,
                                     ValidatorOptions opts, bool rethrow);
    /// run_impl minus the env-armed schedule-exploration wrapper.
    static ValidationReport run_impl_inner(int nranks, const std::function<void(Comm&)>& fn,
                                           ValidatorOptions opts, bool rethrow);

    struct Message {
        int src;
        int tag;
        Bytes payload;
        // Trace flow id tying the send event to the matching receive
        // (obs/trace.hpp); 0 when tracing was off at send time.
        std::uint64_t flow = 0;
        // Query trace id of the sender's current QueryContext
        // (obs/query_trace.hpp); 0 when the send was not query-scoped. Lets
        // message-level tooling attribute traffic to the originating query.
        std::uint64_t qtrace = 0;
        // Starvation tracking (validator only): number of consuming
        // receives that matched a younger or unrelated message while this
        // one sat in the mailbox.
        int passed_over = 0;
        bool starvation_reported = false;
        // Sender's vector clock under schedule exploration (empty
        // otherwise): the send→match happens-before edge for the race
        // checker. Because collectives are built over point-to-point, this
        // one edge also orders gather/scatter/bcast traffic.
        sched::ClockToken vc;
    };

    struct Mailbox {
        CheckedMutex mutex{"vmpi.mailbox"};
        std::condition_variable_any cv;
        std::deque<Message> messages;
    };

    struct IbarrierState {
        std::atomic<int> arrived{0};
        // Schedule exploration: every arrival merges its clock here, every
        // completion acquires the merged clock (arrival→completion edges).
        // Plain mutex: the critical section never yields.
        std::mutex clock_mutex;
        sched::ClockToken clock;
    };

    // Deliver a message to dst's mailbox.
    void deliver(int dst, Message msg);
    // Try to remove a matching message from `rank`'s mailbox. `flow`
    // (optional) receives the matched message's trace flow id.
    bool try_match(int rank, int src, int tag, Bytes* out, int* from, bool consume,
                   std::size_t* bytes, std::uint64_t* flow = nullptr);

    IbarrierState& ibarrier_state(std::uint64_t seq);

    int nranks_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    // Set once any rank's body throws (shared with Request impls).
    std::shared_ptr<std::atomic<bool>> aborted_ = std::make_shared<std::atomic<bool>>(false);

    CheckedMutex ibarrier_mutex_{"vmpi.ibarrier"};
    // Keyed by per-rank ibarrier sequence number; all ranks call ibarrier in
    // the same order so sequence numbers align across ranks.
    std::vector<std::unique_ptr<IbarrierState>> ibarrier_states_;

    // Shared with Request impls, which may outlive the runtime.
    std::shared_ptr<Validator> validator_;

    // Health diag provider (obs/health.hpp) exposing pending mailbox
    // messages to stall diagnoses; unregistered in the destructor.
    std::uint64_t diag_provider_ = 0;
};

// ---- template implementations -------------------------------------------

template <typename T>
std::vector<T> Comm::gather(const T& v, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    const detail::CollectiveScope collective_scope;
    const int tag = next_collective_tag();
    std::vector<T> out;
    if (rank() == root) {
        out.resize(static_cast<std::size_t>(size()));
        out[static_cast<std::size_t>(root)] = v;
        for (int r = 0; r < size(); ++r) {
            if (r == root) {
                continue;
            }
            out[static_cast<std::size_t>(r)] = recv_value<T>(r, tag);
        }
    } else {
        isend_value(root, tag, v);
    }
    return out;
}

template <typename T, typename Op>
T Comm::allreduce(const T& v, Op op) {
    // Gather-to-0 then broadcast: O(P) but simple and deterministic
    // (reduction order is rank order, independent of arrival order).
    std::vector<T> all = gather(v, 0);
    T result{};
    if (rank() == 0) {
        result = all[0];
        for (int r = 1; r < size(); ++r) {
            result = op(result, all[static_cast<std::size_t>(r)]);
        }
    }
    Bytes b(sizeof(T));
    if (rank() == 0) {
        std::memcpy(b.data(), &result, sizeof(T));
    }
    b = bcast(std::move(b), 0);
    std::memcpy(&result, b.data(), sizeof(T));
    return result;
}

}  // namespace bat::vmpi
