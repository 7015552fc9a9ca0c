// Span tracing: scoped begin/end events emitted as Chrome-trace /
// Perfetto-compatible JSON ("X" complete events).
//
// Disabled unless a trace path is configured — either the QUBIKOS_TRACE
// environment variable (read once, flush registered via atexit) or
// set_trace_path() at runtime (tests, tools). When disabled a trace_span
// costs one relaxed bool load; when enabled, a clock read at each end
// plus one push into a bounded per-thread ring buffer (kTraceRingEvents
// slots; overflow drops the oldest-free slot and counts the drop — the
// hot path never blocks and never allocates after the ring exists).
//
// Span names must be string literals (or otherwise outlive the process);
// the ring stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>

namespace qubikos::obs {

/// Events retained per thread; older events are kept, new ones dropped
/// on overflow (a full ring means the trace window is already rich).
inline constexpr std::size_t kTraceRingEvents = 8192;

/// Is a trace destination configured?
[[nodiscard]] bool trace_enabled();

/// Sets (or clears, with "") the trace output path at runtime,
/// overriding the QUBIKOS_TRACE default.
void set_trace_path(const std::string& path);

/// Writes all buffered events to the configured path as a Chrome-trace JSON
/// array and clears the buffers. No-op when tracing is off. Called
/// automatically at process exit when QUBIKOS_TRACE set it up.
void flush_trace();

/// RAII span: records one complete event [construction, destruction) on
/// the current thread. `name` must be a string literal.
class trace_span {
public:
    explicit trace_span(const char* name);
    ~trace_span();

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    const char* name_;
    std::uint64_t start_ns_ = 0;
    bool active_ = false;
};

}  // namespace qubikos::obs
