// The benchmark's own span recorder.
//
// Spans are recorded from the benchmark's files around calls into the
// library's public functions, kept in per-thread memory and written as a
// Chrome-trace JSON when the run ends. Timestamps are nanoseconds since
// the tracer was constructed at run start (the library's QUBIKOS_TRACE
// is not reused: its process_t0 is initialized at flush time, so its
// timestamps underflow).
//
// Each span has a name, start, end, the span that encloses it on its
// thread, and a trace id shared by every span of one unit or request.
// Self time is a span's duration minus the time its children cover;
// children are accumulated into the parent as they close.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct thread_buffer;

struct span_record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
    /// Index of the enclosing span in the same thread's buffer, -1 at
    /// the top level.
    std::int64_t parent = -1;
    std::uint64_t trace_id = 0;
    int thread = 0;

    [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
    [[nodiscard]] std::int64_t self() const { return duration() - child_ns; }
};

/// Per span name: how often it ran, total and self nanoseconds.
struct layer_total {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

class tracer {
public:
    /// The process-wide tracer; its clock starts on first use, which
    /// main() forces at run start.
    static tracer& instance();

    /// Spans are recorded only while recording is on.
    void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool recording() const { return recording_.load(std::memory_order_relaxed); }

    /// Nanoseconds since run start.
    [[nodiscard]] std::int64_t now() const;

    /// RAII span; a no-op while recording is off.
    class span {
    public:
        span(const std::string& name, std::uint64_t trace_id);
        ~span();
        span(const span&) = delete;
        span& operator=(const span&) = delete;

    private:
        thread_buffer* buffer_ = nullptr;
        std::size_t index_ = 0;
    };

    /// Every recorded span, thread by thread.
    [[nodiscard]] std::vector<span_record> spans() const;

    /// Totals per span name over spans that started in [from_ns, to_ns].
    [[nodiscard]] std::map<std::string, layer_total> totals(std::int64_t from_ns,
                                                            std::int64_t to_ns) const;

    /// Time in [from_ns, to_ns] covered by spans whose name is not in
    /// `roots` and whose parent is absent or a root, summed over threads.
    [[nodiscard]] std::int64_t covered_ns(std::int64_t from_ns, std::int64_t to_ns,
                                          const std::vector<std::string>& roots) const;

    /// Writes the Chrome-trace JSON. Returns false (and writes nothing)
    /// when a span lies outside [0, run_end_ns] or is still open.
    [[nodiscard]] bool write_chrome_trace(const std::string& path, std::int64_t run_end_ns,
                                          std::string& error) const;

private:
    tracer();
    thread_buffer& local_buffer();

    std::int64_t t0_ns_ = 0;
    std::atomic<bool> recording_{false};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<thread_buffer>> buffers_;
};

}  // namespace perfbench
