#pragma once
// Low-overhead per-rank span tracer (docs/OBSERVABILITY.md).
//
// Threads record fixed-size events into thread-local lock-free ring buffers;
// recording is a relaxed atomic flag check plus a steady_clock read and a
// struct store, so instrumented hot paths cost one predictable branch when
// tracing is disabled. Tracing is enabled via the BAT_TRACE environment
// variable or set_trace_enabled(); BAT_TRACE_FILE / BAT_METRICS_FILE request
// an automatic export at process exit.
//
// The export is Chrome trace-event JSON: each vmpi rank becomes a process
// track (pid), each thread a tid, vmpi messages carry flow ids so send/recv
// arrows render in chrome://tracing and Perfetto. The discrete-event
// performance model (simio) emits the same format onto virtual tracks, so
// modeled and measured timelines are directly comparable.

#include <cstdint>
#include <filesystem>
#include <string>

#include "obs/health.hpp"

namespace bat::obs {

namespace json {
struct Value;
}

// ---- runtime switch -------------------------------------------------------

/// True when span recording is on. Initialized from BAT_TRACE (any value
/// other than "0"/"off" enables); cheap enough to call per event.
bool trace_enabled();
void set_trace_enabled(bool on);

// ---- low-level recording --------------------------------------------------

/// Nanoseconds since the process trace epoch (first trace use).
std::uint64_t trace_now_ns();

/// Process-unique nonzero id tying a send event to its matching receive.
std::uint64_t next_flow_id();

/// `name` and `cat` must outlive the trace (string literals in practice):
/// events store the pointers, not copies.
void emit_begin(const char* name, const char* cat);
void emit_begin_arg(const char* name, const char* cat, const char* arg,
                    std::int64_t value);
/// Message-shaped span begin with tag/peer/bytes args, plus one optional
/// fourth arg: the post→match wait (wait_us >= 0, receive side) or the
/// sender's query trace id (qtrace != 0, send side — wait_us wins if both).
void emit_begin_msg(const char* name, const char* cat, int tag, int peer,
                    std::int64_t bytes, std::int64_t wait_us = -1,
                    std::uint64_t qtrace = 0);
void emit_end(const char* name, const char* cat);
void emit_instant(const char* name, const char* cat);
void emit_counter(const char* name, const char* cat, std::int64_t value);
/// Flow arrows: start is emitted inside the sending span, end inside the
/// receiving span; `flow_id` pairs them up.
void emit_flow_start(const char* cat, std::uint64_t flow_id);
void emit_flow_end(const char* cat, std::uint64_t flow_id);

// ---- virtual tracks (modeled timelines) -----------------------------------

/// Allocate a synthetic thread track (shown under the "model" process) for
/// spans with explicit timestamps, e.g. the simio discrete-event model.
std::uint32_t new_virtual_track(const std::string& name);
void emit_span_on_track(std::uint32_t track, const char* name, const char* cat,
                        std::uint64_t ts_ns, std::uint64_t dur_ns);

// ---- export ---------------------------------------------------------------

/// Serialize every thread's buffered events as Chrome trace-event JSON.
std::string chrome_trace_json();
void write_chrome_trace(const std::filesystem::path& path);

/// JSON array holding the newest `max_per_thread` events of each thread's
/// ring, for flight-recorder dumps. Same event objects as
/// chrome_trace_json(), unsorted across threads.
std::string trace_tail_json(std::size_t max_per_thread);

/// Events lost to ring-buffer overflow since the last reset.
std::uint64_t dropped_events();

/// Drop all buffered events (tests and repeated benchmark runs).
void reset_trace();

/// Ring capacity (events per thread) for buffers created after the call;
/// also settable via BAT_TRACE_BUFFER. Existing buffers are unchanged.
void set_ring_capacity(std::size_t events);

// ---- validation -----------------------------------------------------------

/// Structural check of a parsed Chrome trace: every begin has a matching
/// end on its (pid, tid) track, flow ends pair with flow starts, timestamps
/// are sane. Shared by tools/trace_summarize --validate and the tests.
struct TraceCheck {
    bool ok = false;
    std::string error;       // first structural problem found
    int num_events = 0;      // trace events excluding metadata
    int num_ranks = 0;       // distinct rank processes with at least one span
    int num_spans = 0;       // matched begin/end pairs
    int num_flows = 0;       // matched flow start/end pairs
};
TraceCheck validate_chrome_trace(const json::Value& root);

// ---- RAII helpers ---------------------------------------------------------

/// Span over a scope; no-op when tracing was disabled at entry.
class SpanScope {
public:
    SpanScope(const char* name, const char* cat) : name_(name), cat_(cat) {
        if (trace_enabled()) {
            active_ = true;
            emit_begin(name_, cat_);
        }
        if (span_tracking_enabled()) {
            tracked_ = true;
            health_detail::push_span(name_);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() {
        if (active_) {
            emit_end(name_, cat_);
        }
        if (tracked_) {
            health_detail::pop_span();
        }
    }

private:
    const char* name_;
    const char* cat_;
    bool active_ = false;
    bool tracked_ = false;
};

/// Span that also accumulates its duration (seconds) into `*accum` — the
/// bridge between tracing and the WritePhaseTimings / ReadPhaseTimings
/// breakdown structs, which are populated from these spans alone.
class PhaseSpan {
public:
    PhaseSpan(const char* name, double* accum, const char* cat = "phase")
        : PhaseSpan(name, accum, trace_now_ns(), cat) {}
    /// Starts at `start_ns` (trace_now_ns clock): pass the previous phase's
    /// close() stamp so consecutive phases share one boundary stamp.
    PhaseSpan(const char* name, double* accum, std::uint64_t start_ns,
              const char* cat = "phase")
        : name_(name), cat_(cat), accum_(accum), t0_ns_(start_ns), open_(true),
          traced_(trace_enabled()) {
        if (traced_) {
            emit_begin(name_, cat_);
        }
        if (span_tracking_enabled()) {
            tracked_ = true;
            health_detail::push_span(name_);
        }
    }
    PhaseSpan(const PhaseSpan&) = delete;
    PhaseSpan& operator=(const PhaseSpan&) = delete;
    ~PhaseSpan() { close(); }

    /// End the phase early; idempotent. Returns the end stamp
    /// (trace_now_ns clock), taken on the first call.
    std::uint64_t close() {
        if (!open_) {
            return t1_ns_;
        }
        open_ = false;
        t1_ns_ = trace_now_ns();
        const double seconds = static_cast<double>(t1_ns_ - t0_ns_) * 1e-9;
        if (accum_ != nullptr) {
            *accum_ += seconds;
        }
        // The run report accumulates the identical duration, so its phase
        // seconds match the timings structs exactly.
        health_detail::record_phase(name_, seconds);
        if (traced_) {
            emit_end(name_, cat_);
        }
        if (tracked_) {
            tracked_ = false;
            health_detail::pop_span();
        }
        return t1_ns_;
    }

private:
    const char* name_;
    const char* cat_;
    double* accum_;
    std::uint64_t t0_ns_;
    std::uint64_t t1_ns_ = 0;
    bool open_;
    bool traced_;
    bool tracked_ = false;
};

}  // namespace bat::obs

#define BAT_OBS_CONCAT_IMPL(a, b) a##b
#define BAT_OBS_CONCAT(a, b) BAT_OBS_CONCAT_IMPL(a, b)

/// RAII span over the enclosing scope, e.g. BAT_TRACE_SCOPE("bat.build").
#define BAT_TRACE_SCOPE(name) BAT_TRACE_SCOPE_CAT(name, "app")
#define BAT_TRACE_SCOPE_CAT(name, cat) \
    ::bat::obs::SpanScope BAT_OBS_CONCAT(bat_trace_scope_, __LINE__)(name, cat)
