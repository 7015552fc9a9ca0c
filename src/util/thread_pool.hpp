// Persistent fixed-size thread pool for embarrassingly parallel index
// loops.
//
// The trial engine (SABRE restarts), the evaluation harness (tool x
// instance grid) and the campaign worker all consist of independent
// units of work whose results are reduced deterministically afterwards,
// so a plain parallel loop over an index range — no work stealing, no
// futures — is all the concurrency machinery this library needs. No
// external deps.
//
// Two usage modes:
//   - thread_pool::shared() is the process-wide pool every hot path
//     dispatches onto. It is created once (sized by QUBIKOS_THREADS /
//     hardware_concurrency) and reused for the life of the process, so a
//     route_sabre call costs one mutex lock + wakeup, not a pool's worth
//     of thread spawns. Callers cap per-job concurrency with the
//     max_workers argument of parallel_for_slots; requests beyond the
//     pool's size are clamped to it (oversubscribing cores never helps).
//   - Explicitly constructed pools keep the old semantics (an owned set
//     of worker threads of exactly the requested size) for tests and
//     special cases.
//
// Jobs may be published concurrently (including a nested job from
// inside a worker): each job tracks its own cursor, participants and
// completion, and the publishing thread always participates, so nesting
// cannot deadlock even when every worker is busy.
//
// Sizing: an explicit request wins; a request of 0 means "auto", which
// reads the QUBIKOS_THREADS environment variable and falls back to
// std::thread::hardware_concurrency(). A pool of size 1 (or a
// single-core machine) spawns no threads at all: every job runs inline
// on the calling thread, so single-threaded behaviour is exactly the
// serial code path.
//
// Error handling: the first exception a job function throws is rethrown
// from the publishing call after the job drains, and it *cancels* the
// job — indices not yet claimed when the exception happened are never
// run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qubikos {

class thread_pool {
public:
    /// `threads` == 0 resolves via resolve_threads(); >= 1 is taken as-is.
    explicit thread_pool(std::size_t threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Number of threads that execute work (workers + the calling
    /// thread); always >= 1.
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Applies fn(i, slot) for every i in [begin, end), distributing
    /// indices dynamically over the pool; the calling thread
    /// participates and the call blocks until the job drains. At most
    /// `max_workers` threads (0 = the pool's size) execute the job, each
    /// identified by a stable slot index in [0, effective_width) passed
    /// as fn's second argument — the hook per-thread arenas key off.
    /// Indices are claimed `chunk` at a time (0 = auto: range /
    /// (width * 8), at least 1), so fine-grained loops pay one atomic per
    /// chunk instead of one per index. A thread's claims are
    /// monotonically increasing, so per-slot reductions that scan in
    /// claim order see ascending indices. If any fn throws, the first
    /// exception is rethrown here and the remaining unclaimed indices
    /// are skipped (the job is cancelled).
    void parallel_for_slots(std::size_t begin, std::size_t end, std::size_t max_workers,
                            const std::function<void(std::size_t, std::size_t)>& fn,
                            std::size_t chunk = 1);

    /// 0 -> QUBIKOS_THREADS env var if set and positive, else
    /// hardware_concurrency() (>= 1); n > 0 -> n.
    [[nodiscard]] static std::size_t resolve_threads(std::size_t requested);

    /// The process-wide pool, created on first use with auto sizing
    /// (QUBIKOS_THREADS read once, at that moment). All library hot
    /// paths dispatch here so thread creation is a one-time cost.
    [[nodiscard]] static thread_pool& shared();

private:
    struct job;

    void worker_loop();
    void run_job(job& j);

    std::size_t size_ = 1;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_ready_;
    std::condition_variable work_done_;
    /// Published jobs that may still accept participants. A job is
    /// removed once exhausted, cancelled, or fully staffed; the entry is
    /// non-owning (jobs live on their publisher's stack).
    std::vector<job*> jobs_;
    bool stop_ = false;
};

}  // namespace qubikos
