// Stopwatches used by the evaluation harness to report runtimes.
//
// Two clocks, two semantics:
//   stopwatch      - wall-clock (steady_clock); what a user experiences.
//   cpu_stopwatch  - per-thread CPU time; what the work itself costs.
//
// Per-record timings taken inside a parallel loop must use cpu_stopwatch:
// wall time inflates under contention (a record "takes" longer merely
// because sibling records share the cores), while thread-CPU time of a
// serial tool invocation is the same whether the surrounding grid runs on
// 1 thread or 32 — i.e. serial timing semantics under parallel execution.
#pragma once

#include <chrono>

#if !defined(_WIN32)
#include <ctime>
#endif

namespace qubikos {

class stopwatch {
public:
    stopwatch() : start_(clock::now()) {}

    void reset() { start_ = clock::now(); }

    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/// CPU time consumed by the calling thread since construction. Must be
/// read on the same thread that constructed it. Falls back to wall time
/// on platforms without a per-thread CPU clock.
class cpu_stopwatch {
public:
    cpu_stopwatch() : start_(now()) {}

    void reset() { start_ = now(); }

    [[nodiscard]] double seconds() const { return now() - start_; }

private:
    [[nodiscard]] static double now() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
        timespec ts{};
        if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
            return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
        }
#endif
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    double start_;
};

}  // namespace qubikos
