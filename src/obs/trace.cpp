#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace qubikos::obs {

namespace {

struct trace_event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    int tid;
};

/// One thread's bounded event buffer. Allocated to capacity up front so
/// recording never allocates. The per-ring mutex is uncontended in
/// steady state (only the owner pushes); flush_trace takes it briefly
/// while draining, which keeps the owner/flush handoff race-free.
struct trace_ring {
    std::mutex mu;
    int tid = 0;
    std::size_t used = 0;
    std::uint64_t dropped = 0;
    std::vector<trace_event> events;

    explicit trace_ring(int id) : tid(id) { events.resize(kTraceRingEvents); }

    void push(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
        const std::lock_guard<std::mutex> lock(mu);
        if (used >= kTraceRingEvents) {
            ++dropped;
            return;
        }
        events[used++] = trace_event{name, start_ns, dur_ns, tid};
    }

    /// Moves buffered events into `out`; returns the drop count cleared.
    std::uint64_t drain_into(std::vector<trace_event>& out) {
        const std::lock_guard<std::mutex> lock(mu);
        out.insert(out.end(), events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(used));
        const std::uint64_t d = dropped;
        used = 0;
        dropped = 0;
        return d;
    }
};

/// Global trace state; leaked for the same destruction-order reason as
/// the counter registry (pool workers retire rings from thread-local
/// destructors).
struct trace_state {
    std::mutex mu;
    bool configured = false;
    std::string path;
    /// Time origin of the trace file: anchored when tracing is configured,
    /// so every span recorded afterwards has a non-negative offset.
    std::uint64_t t0_ns = 0;
    std::atomic<bool> active{false};
    int next_tid = 0;
    std::vector<trace_ring*> live_rings;
    std::vector<trace_event> retired;
    std::uint64_t retired_dropped = 0;
};

trace_state& state() {
    static trace_state* s = new trace_state();
    return *s;
}

/// Reads QUBIKOS_TRACE once, the first time anything touches the trace
/// layer, and registers the exit flush when it names a path.
void ensure_env_config() {
    trace_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.configured) {
        return;
    }
    s.configured = true;
    const char* v = std::getenv("QUBIKOS_TRACE");
    if (v != nullptr && v[0] != '\0') {
        s.path = v;
        s.t0_ns = now_ns();
        s.active.store(true, std::memory_order_relaxed);
        std::atexit([] { flush_trace(); });
    }
}

struct ring_owner {
    trace_ring* ring;

    ring_owner() {
        trace_state& s = state();
        const std::lock_guard<std::mutex> lock(s.mu);
        ring = new trace_ring(s.next_tid++);
        s.live_rings.push_back(ring);
    }

    ~ring_owner() {
        trace_state& s = state();
        const std::lock_guard<std::mutex> lock(s.mu);
        s.retired_dropped += ring->drain_into(s.retired);
        std::erase(s.live_rings, ring);
        delete ring;
    }
};

trace_ring& local_ring() {
    static thread_local ring_owner owner;
    return *owner.ring;
}

void write_events(const std::string& path, std::vector<trace_event> events,
                  std::uint64_t dropped, std::uint64_t t0) {
    // Stable order (tid, start, longer-span-first) so nesting reads
    // naturally in viewers and in the well-formedness test.
    std::sort(events.begin(), events.end(),
              [](const trace_event& a, const trace_event& b) {
                  if (a.tid != b.tid) return a.tid < b.tid;
                  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                  return a.dur_ns > b.dur_ns;
              });
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return;  // tracing is best-effort; never fail the workload
    }
    out << "[";
    char buf[128];
    bool first = true;
    // Span names come from instrumentation sites as literals today, but
    // the emitter must not rely on that: they pass through the shared
    // json escaping helper, never a raw %s.
    for (const trace_event& e : events) {
        std::snprintf(buf, sizeof(buf), ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                      "\"pid\":1,\"tid\":%d}",
                      // A span left over from an earlier configuration
                      // starts before t0; it is pinned to 0, never wrapped.
                      static_cast<double>(e.start_ns > t0 ? e.start_ns - t0 : 0) / 1000.0,
                      static_cast<double>(e.dur_ns) / 1000.0, e.tid);
        out << (first ? "" : ",") << "\n{\"name\":"
            << json::quoted(std::string(e.name)) << buf;
        first = false;
    }
    if (dropped > 0) {
        out << (first ? "" : ",") << "\n{\"name\":"
            << json::quoted("trace.dropped:" + std::to_string(dropped))
            << ",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.000,\"pid\":1,\"tid\":0}";
    }
    out << "\n]\n";
}

}  // namespace

bool trace_enabled() {
    ensure_env_config();
    return state().active.load(std::memory_order_relaxed);
}

void set_trace_path(const std::string& path) {
    trace_state& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.configured = true;  // runtime config wins over the env
    s.path = path;
    s.t0_ns = now_ns();
    s.active.store(!path.empty(), std::memory_order_relaxed);
}

void flush_trace() {
    trace_state& s = state();
    std::string path;
    std::vector<trace_event> events;
    std::uint64_t dropped = 0;
    std::uint64_t t0 = 0;
    {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (s.path.empty()) {
            return;
        }
        path = s.path;
        t0 = s.t0_ns;
        events = std::move(s.retired);
        s.retired.clear();
        dropped = s.retired_dropped;
        s.retired_dropped = 0;
        for (trace_ring* ring : s.live_rings) {
            dropped += ring->drain_into(events);
        }
    }
    write_events(path, std::move(events), dropped, t0);
}

trace_span::trace_span(const char* name)
    : name_(name), active_(trace_enabled()) {
    if (active_) {
        start_ns_ = now_ns();
    }
}

trace_span::~trace_span() {
    if (active_) {
        local_ring().push(name_, start_ns_, now_ns() - start_ns_);
    }
}

}  // namespace qubikos::obs
