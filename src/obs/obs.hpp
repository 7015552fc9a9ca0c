// Process-wide telemetry: a named counter/timer registry with
// thread-local slabs.
//
// Design goals, in order:
//   1. Telemetry must never perturb results. Nothing here touches RNG
//      state, iteration order or scheduling; instrumented code publishes
//      *after* computing, and the routed-output-bit-identical guarantee
//      is pinned by test (tests/test_obs.cpp).
//   2. Lock-free hot path, zero heap in steady state. Each thread owns a
//      fixed-size slab of relaxed atomics; add() is one thread-local
//      lookup plus one relaxed load/store on a cell only its owner ever
//      writes. The global mutex is taken only when a thread's slab is
//      created/retired, a name is interned or a snapshot is collected.
//   3. Cheap to turn off. When observability is disabled (QUBIKOS_OBS=off
//      or set_enabled(false)) every add() is a single relaxed bool load.
//
// Naming convention: dotted lowercase "component.metric"
// (e.g. "sabre.pass_decisions", "sat.propagations"). A timer is a pair
// of counters, "<name>.ns" (total nanoseconds) and "<name>.calls".
//
// Metric IDs are interned once (typically into a function-local static
// at the instrumentation site) and stay valid for the process lifetime.
// A call boundary that reports the same several counters every time,
// such as a route, interns them once as a counter_set.
// The registry is deliberately leaked so telemetry stays usable from
// thread-local destructors of threads (e.g. the shared pool's workers)
// that outlive ordinary static destruction order.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace qubikos::obs {

/// Index into every thread's slab; returned by counter()/timer().
using metric_id = std::size_t;

/// Capacity of one per-thread slab (and of the whole metric namespace).
inline constexpr std::size_t kMaxMetrics = 256;

/// Is telemetry collection on? Defaults from the QUBIKOS_OBS environment
/// variable, read once: unset/"on"/"1" = enabled, "off"/"0"/"false" =
/// disabled. (The value "metrics" additionally opts campaign workers
/// into persisting per-unit metrics records — see metrics_records().)
[[nodiscard]] bool enabled();

/// Runtime override of the cached environment default (tests, benches).
void set_enabled(bool on);

/// Should campaign workers persist per-unit metrics records?
/// QUBIKOS_OBS=metrics (or "full") turns this on; everything else off.
[[nodiscard]] bool metrics_records();

/// Interns `name` and returns its stable id; repeated calls with the
/// same name return the same id. Throws when the namespace (kMaxMetrics
/// distinct names) is exhausted — a programming error, not a load issue.
[[nodiscard]] metric_id counter(const char* name);

/// A timer's two counter ids ("<base>.ns" and "<base>.calls").
struct timer_id {
    metric_id ns = 0;
    metric_id calls = 0;
};

/// Interns "<base>.ns" + "<base>.calls" (convenience over counter()).
[[nodiscard]] timer_id timer(const char* base);

/// Adds `delta` to this thread's cell of `id`. Lock-free (first call on
/// a new thread registers its slab under the registry mutex once).
void add(metric_id id, std::uint64_t delta = 1);

/// RAII wall-clock timer: on destruction adds the elapsed nanoseconds to
/// "<base>.ns" and 1 to "<base>.calls". Reads no clock when telemetry is
/// disabled at construction.
class scoped_timer {
public:
    explicit scoped_timer(timer_id id);
    ~scoped_timer();

    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;

private:
    timer_id id_;
    std::uint64_t start_ns_ = 0;
    bool active_ = false;
};

/// A name-sorted list of (name, count) pairs: the one shape every
/// counter takes. collect() and thread_delta::deltas() return one, a
/// router fills one per route, and a run record carries one to the
/// campaign store.
struct snapshot {
    /// (name, total), sorted by name, names unique.
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Value of `name`, 0 when absent.
    [[nodiscard]] std::uint64_t value(std::string_view name) const;

    /// Adds `n` to `name`, inserting it in name order when absent (so a
    /// zero `n` still lists the name).
    void add(std::string_view name, std::uint64_t n);

    /// The list as a JSON object of numbers (deterministic key order);
    /// an empty object for an empty list.
    [[nodiscard]] json::value to_json() const;

    [[nodiscard]] bool empty() const { return counters.empty(); }
    [[nodiscard]] auto begin() const { return counters.begin(); }
    [[nodiscard]] auto end() const { return counters.end(); }
};

/// A call boundary's fixed counter names (a route's), interned once —
/// keep it in a function-local static — so publishing takes no registry
/// lock. The names must be sorted and unique.
struct counter_set {
    counter_set(std::initializer_list<const char*> names);

    /// Adds values[i] to the i-th name (when telemetry is enabled) and,
    /// when `out` is non-null, stores it as out's i-th count; `out` must
    /// be a copy of `zeros`. Allocates nothing, so it is safe in a
    /// destructor.
    void publish(std::span<const std::uint64_t> values, snapshot* out) const;

    snapshot zeros;  ///< every name at 0, in order
    std::vector<metric_id> ids;
};

/// Collects a merged snapshot (registry mutex; safe concurrently with
/// add() on any thread — per-cell reads are atomic, the snapshot as a
/// whole is a consistent-enough sum for reporting, not a barrier).
[[nodiscard]] snapshot collect();

/// Zeroes every live slab cell and the retired totals (tests, benches).
/// Do not call concurrently with add() on other threads.
void reset();

/// Captures the *calling thread's* slab at construction; deltas()
/// reports how much this thread added since. The campaign worker wraps
/// one work unit with this to attribute cost per unit — valid because
/// campaign tools execute serially on the claiming thread (work a tool
/// itself fans out to pool workers is not attributed).
class thread_delta {
public:
    thread_delta();

    /// Nonzero (current - base) deltas of this thread.
    [[nodiscard]] snapshot deltas() const;

private:
    std::vector<std::uint64_t> base_;
};

}  // namespace qubikos::obs
