#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace qubikos {

namespace {

obs::metric_id pool_chunks_metric() {
    static const obs::metric_id id = obs::counter("pool.chunks_claimed");
    return id;
}

obs::metric_id pool_jobs_metric() {
    static const obs::metric_id id = obs::counter("pool.jobs");
    return id;
}

obs::timer_id pool_idle_metric() {
    static const obs::timer_id id = obs::timer("pool.idle");
    return id;
}

}  // namespace

/// One parallel_for_slots invocation: a shared chunked index cursor plus
/// participation bookkeeping. Participants pull chunks with fetch_add
/// until the range is exhausted or the job is cancelled; the last worker
/// to leave wakes the waiting publisher. `joined` and `active_workers`
/// are guarded by the pool mutex (participation decisions happen under
/// the lock anyway); the cursor and cancellation flag are lock-free so
/// the steady-state claim path costs one atomic add.
struct thread_pool::job {
    std::atomic<std::size_t> next;
    std::size_t end;
    std::size_t chunk;
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::size_t max_slots;
    std::size_t joined = 0;          // participants so far (slot source)
    std::size_t active_workers = 0;  // pool workers currently inside run()
    std::atomic<bool> cancelled{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    job(std::size_t begin, std::size_t end_, std::size_t chunk_, std::size_t max_slots_,
        const std::function<void(std::size_t, std::size_t)>* fn_)
        : next(begin), end(end_), chunk(chunk_), fn(fn_), max_slots(max_slots_) {}

    [[nodiscard]] bool joinable() const {
        return joined < max_slots && !cancelled.load(std::memory_order_relaxed) &&
               next.load(std::memory_order_relaxed) < end;
    }

    void run(std::size_t slot) {
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t start = next.fetch_add(chunk, std::memory_order_relaxed);
            if (start >= end) return;
            obs::add(pool_chunks_metric());
            const std::size_t stop = std::min(end, start + chunk);
            for (std::size_t i = start; i < stop; ++i) {
                // Cancellation is checked before every index so a failed
                // job stops quickly even mid-chunk.
                if (cancelled.load(std::memory_order_relaxed)) return;
                try {
                    (*fn)(i, slot);
                } catch (...) {
                    {
                        const std::lock_guard<std::mutex> lock(error_mutex);
                        if (!first_error) first_error = std::current_exception();
                    }
                    cancelled.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    }
};

std::size_t thread_pool::resolve_threads(std::size_t requested) {
    if (requested > 0) return requested;
    if (const char* env = std::getenv("QUBIKOS_THREADS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0) return static_cast<std::size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

thread_pool& thread_pool::shared() {
    static thread_pool pool(0);
    return pool;
}

thread_pool::thread_pool(std::size_t threads) : size_(resolve_threads(threads)) {
    // size_ == 1 keeps everything inline on the calling thread.
    workers_.reserve(size_ > 1 ? size_ - 1 : 0);
    for (std::size_t i = 1; i < size_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_ready_.notify_all();
    for (auto& w : workers_) w.join();
}

void thread_pool::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        job* j = nullptr;
        {
            // Time spent blocked waiting for work; published per wakeup
            // so `pool.idle.ns / pool.idle.calls` reads as mean wait.
            const obs::scoped_timer idle(pool_idle_metric());
            work_ready_.wait(lock, [&] {
                if (stop_) return true;
                // Drop stale entries while scanning so fully claimed or
                // cancelled jobs don't keep waking workers.
                for (std::size_t k = 0; k < jobs_.size();) {
                    if (jobs_[k]->joinable()) {
                        j = jobs_[k];
                        return true;
                    }
                    jobs_[k] = jobs_.back();
                    jobs_.pop_back();
                }
                return false;
            });
        }
        if (stop_) return;
        const std::size_t slot = j->joined++;
        ++j->active_workers;
        lock.unlock();
        j->run(slot);
        lock.lock();
        if (--j->active_workers == 0) {
            // The publisher may be waiting on this job; predicate recheck
            // filters wakeups meant for other jobs.
            work_done_.notify_all();
        }
    }
}

void thread_pool::run_job(job& j) {
    obs::add(pool_jobs_metric());
    const obs::trace_span span("pool.job");
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        j.joined = 1;  // the caller takes slot 0
        jobs_.push_back(&j);
    }
    work_ready_.notify_all();

    j.run(0);  // The caller participates.

    {
        std::unique_lock<std::mutex> lock(mutex_);
        // No new workers may join; wait out the active ones.
        const auto it = std::find(jobs_.begin(), jobs_.end(), &j);
        if (it != jobs_.end()) {
            *it = jobs_.back();
            jobs_.pop_back();
        }
        work_done_.wait(lock, [&j] { return j.active_workers == 0; });
    }
    if (j.first_error) std::rethrow_exception(j.first_error);
}

void thread_pool::parallel_for_slots(std::size_t begin, std::size_t end,
                                     std::size_t max_workers,
                                     const std::function<void(std::size_t, std::size_t)>& fn,
                                     std::size_t chunk) {
    if (begin >= end) return;
    const std::size_t range = end - begin;
    const std::size_t width = std::min({max_workers == 0 ? size_ : max_workers, size_, range});
    if (chunk == 0) chunk = std::max<std::size_t>(1, range / (std::max<std::size_t>(width, 1) * 8));
    if (width <= 1 || range == 1) {
        for (std::size_t i = begin; i < end; ++i) fn(i, 0);
        return;
    }
    job j(begin, end, chunk, width, &fn);
    run_job(j);
}

}  // namespace qubikos
