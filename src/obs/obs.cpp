#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "util/check.hpp"

namespace qubikos::obs {

namespace {

using slab_cells = std::array<std::atomic<std::uint64_t>, kMaxMetrics>;

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// All mutable registry state behind one mutex. Intentionally leaked
/// (see obs.hpp): pool worker threads retire their slabs from
/// thread-local destructors that can run during static destruction, so
/// the registry must never be destroyed.
struct registry {
    std::mutex mu;
    std::vector<std::string> names;                  // id -> name
    std::map<std::string, metric_id> ids;            // name -> id
    std::vector<slab_cells*> live_slabs;             // one per live thread
    std::array<std::uint64_t, kMaxMetrics> retired{};  // folded exited threads
};

registry& reg() {
    static registry* r = new registry();
    return *r;
}

bool env_flag_off(const char* value) {
    return std::strcmp(value, "off") == 0 || std::strcmp(value, "0") == 0 ||
           std::strcmp(value, "false") == 0;
}

std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{[] {
        const char* v = std::getenv("QUBIKOS_OBS");
        return v == nullptr || !env_flag_off(v);
    }()};
    return flag;
}

/// Owns one thread's slab: registers it on construction, folds its
/// totals into the retired accumulator on thread exit.
struct slab_owner {
    slab_cells cells{};

    slab_owner() {
        registry& r = reg();
        const std::lock_guard<std::mutex> lock(r.mu);
        r.live_slabs.push_back(&cells);
    }

    ~slab_owner() {
        registry& r = reg();
        const std::lock_guard<std::mutex> lock(r.mu);
        for (std::size_t i = 0; i < kMaxMetrics; ++i) {
            r.retired[i] += cells[i].load(std::memory_order_relaxed);
        }
        std::erase(r.live_slabs, &cells);
    }
};

/// First entry whose name is not less than `name`.
auto lower_bound_of(auto& counters, std::string_view name) {
    return std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
}

slab_cells& local_slab() {
    static thread_local slab_owner owner;
    return owner.cells;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }

bool metrics_records() {
    static const bool on = [] {
        const char* v = std::getenv("QUBIKOS_OBS");
        return v != nullptr &&
               (std::strcmp(v, "metrics") == 0 || std::strcmp(v, "full") == 0);
    }();
    return on && enabled();
}

metric_id counter(const char* name) {
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.ids.find(name);
    if (it != r.ids.end()) {
        return it->second;
    }
    if (r.names.size() >= kMaxMetrics) {
        throw std::runtime_error("obs: metric namespace exhausted (kMaxMetrics)");
    }
    const metric_id id = r.names.size();
    r.names.emplace_back(name);
    r.ids.emplace(name, id);
    return id;
}

timer_id timer(const char* base) {
    const std::string b(base);
    timer_id id;
    id.ns = counter((b + ".ns").c_str());
    id.calls = counter((b + ".calls").c_str());
    return id;
}

void add(metric_id id, std::uint64_t delta) {
    if (!enabled() || id >= kMaxMetrics) {
        return;
    }
    // Owner-only write: no RMW needed, the collector tolerates reading
    // either the old or the new value.
    std::atomic<std::uint64_t>& cell = local_slab()[id];
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

scoped_timer::scoped_timer(timer_id id) : id_(id), active_(enabled()) {
    if (active_) {
        start_ns_ = now_ns();
    }
}

scoped_timer::~scoped_timer() {
    if (active_) {
        add(id_.ns, now_ns() - start_ns_);
        add(id_.calls, 1);
    }
}

std::uint64_t snapshot::value(std::string_view name) const {
    const auto it = lower_bound_of(counters, name);
    return it != counters.end() && it->first == name ? it->second : 0;
}

void snapshot::add(std::string_view name, std::uint64_t n) {
    const auto it = lower_bound_of(counters, name);
    if (it != counters.end() && it->first == name) {
        it->second += n;
    } else {
        counters.emplace(it, std::string(name), n);
    }
}

json::value snapshot::to_json() const {
    json::object obj;
    for (const auto& [name, v] : counters) {
        // Counters fit a double exactly well past any realistic total
        // (< 2^53); JSON numbers keep the store format uniform.
        obj.emplace(name, json::value(static_cast<double>(v)));
    }
    return json::value(std::move(obj));
}

counter_set::counter_set(std::initializer_list<const char*> names) {
    for (const char* name : names) {
        QUBIKOS_CHECK_MSG(zeros.empty() || zeros.counters.back().first < name,
                          "obs: counter_set names must be sorted and unique");
        zeros.counters.emplace_back(name, 0);
        ids.push_back(counter(name));
    }
}

void counter_set::publish(std::span<const std::uint64_t> values, snapshot* out) const {
    QUBIKOS_DCHECK(values.size() == ids.size());
    QUBIKOS_DCHECK(out == nullptr || out->counters.size() == values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        add(ids[i], values[i]);
        if (out != nullptr) out->counters[i].second = values[i];
    }
}

snapshot collect() {
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    std::array<std::uint64_t, kMaxMetrics> totals = r.retired;
    for (const slab_cells* cells : r.live_slabs) {
        for (std::size_t i = 0; i < r.names.size(); ++i) {
            totals[i] += (*cells)[i].load(std::memory_order_relaxed);
        }
    }
    snapshot snap;
    // r.ids is name-sorted (std::map), so iterate it for sorted output.
    snap.counters.reserve(r.ids.size());
    for (const auto& [name, id] : r.ids) {
        snap.counters.emplace_back(name, totals[id]);
    }
    return snap;
}

void reset() {
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.retired.fill(0);
    for (slab_cells* cells : r.live_slabs) {
        for (auto& cell : *cells) {
            cell.store(0, std::memory_order_relaxed);
        }
    }
}

thread_delta::thread_delta() : base_(kMaxMetrics, 0) {
    const slab_cells& cells = local_slab();
    for (std::size_t i = 0; i < kMaxMetrics; ++i) {
        base_[i] = cells[i].load(std::memory_order_relaxed);
    }
}

snapshot thread_delta::deltas() const {
    const slab_cells& cells = local_slab();
    std::array<std::uint64_t, kMaxMetrics> current{};
    for (std::size_t i = 0; i < kMaxMetrics; ++i) {
        current[i] = cells[i].load(std::memory_order_relaxed);
    }
    registry& r = reg();
    const std::lock_guard<std::mutex> lock(r.mu);
    snapshot out;
    for (const auto& [name, id] : r.ids) {
        const std::uint64_t d = current[id] - base_[id];
        if (d != 0) {
            out.counters.emplace_back(name, d);
        }
    }
    return out;
}

}  // namespace qubikos::obs
