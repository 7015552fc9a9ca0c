#include "serve/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "circuit/qasm.hpp"
#include "circuit/routed.hpp"
#include "core/qubikos.hpp"
#include "exact/olsq.hpp"
#include "obs/obs.hpp"
#include "tools/registry.hpp"
#include "util/stopwatch.hpp"

namespace qubikos::serve {

namespace {

std::shared_ptr<const engine::device_entry> build_device(const std::string& name) {
    auto entry = std::make_shared<engine::device_entry>();
    try {
        entry->device = arch::by_name(name);
    } catch (const std::invalid_argument& e) {
        throw request_error(error_code::unknown_device, e.what());
    }
    entry->context = tools::make_routing_context(entry->device.coupling);
    return entry;
}

core::generator_options to_generator_options(const generator_params& params) {
    core::generator_options options;
    options.num_swaps = params.swaps;
    options.total_two_qubit_gates = params.gates;
    options.seed = params.seed;
    return options;
}

core::benchmark_instance generate_instance(const arch::architecture& device,
                                           const generator_params& params) {
    try {
        return core::generate(device, to_generator_options(params));
    } catch (const core::generator_error& e) {
        throw request_error(error_code::bad_request, e.what());
    }
}

}  // namespace

engine::engine(engine_options options) : options_(options) {}

std::shared_ptr<const engine::device_entry> engine::device_for(const std::string& name) {
    static const obs::metric_id hit = obs::counter("serve.context_hit");
    static const obs::metric_id miss = obs::counter("serve.context_miss");
    static const obs::metric_id evict = obs::counter("serve.context_evict");
    if (!options_.cache_contexts) {
        auto entry = build_device(name);
        obs::add(miss);
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return entry;
    }
    std::shared_future<std::shared_ptr<const device_entry>> cached;
    std::promise<std::shared_ptr<const device_entry>> built;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = std::find_if(lru_.begin(), lru_.end(),
                                     [&](const auto& slot) { return slot.first == name; });
        if (it != lru_.end()) {
            std::rotate(lru_.begin(), it, it + 1);
            ++stats_.hits;
            obs::add(hit);
            cached = lru_.front().second;
        } else {
            // Published before the build, so concurrent requests for this
            // device wait on this one build instead of starting their own.
            lru_.insert(lru_.begin(), {name, built.get_future().share()});
            ++stats_.misses;
            obs::add(miss);
        }
    }
    // Waits while the device is still being built.
    if (cached.valid()) return cached.get();

    // Build outside the lock: a cold large-grid request must not stall
    // concurrent requests for other devices.
    std::shared_ptr<const device_entry> entry;
    try {
        entry = build_device(name);
    } catch (...) {
        built.set_exception(std::current_exception());
        // Whether a name builds depends on the name alone, so whatever
        // entry now sits under it is doomed too. Nothing was trimmed for
        // it: a failed lookup never evicts a real device.
        const std::lock_guard<std::mutex> lock(mutex_);
        std::erase_if(lru_, [&](const auto& slot) { return slot.first == name; });
        throw;
    }
    built.set_value(entry);
    const std::lock_guard<std::mutex> lock(mutex_);
    while (lru_.size() > options_.max_cached_devices) {
        lru_.pop_back();
        ++stats_.evictions;
        obs::add(evict);
    }
    return entry;
}

route_response engine::route(const route_request& req) {
    const auto entry = device_for(req.device);

    circuit logical;
    if (req.generate.has_value()) {
        logical = generate_instance(entry->device, *req.generate).logical;
    } else {
        try {
            logical = qasm::parse(req.qasm);
        } catch (const std::runtime_error& e) {
            throw request_error(error_code::bad_request, std::string("qasm: ") + e.what());
        }
    }

    eval::tool tool;
    try {
        tool = tools::make_tool(req.tool, req.options, entry->context);
    } catch (const std::invalid_argument& e) {
        // parse_request validates these up front; this guards callers
        // that build route_requests directly (CLI, benches).
        throw request_error(tools::is_registered_tool(req.tool) ? error_code::bad_option
                                                                : error_code::unknown_tool,
                            e.what());
    }

    cpu_stopwatch timer;
    const routed_circuit routed = tool.route(logical, entry->device.coupling, nullptr, nullptr);
    const double seconds = timer.seconds();
    const auto report = validate_routed(logical, routed, entry->device.coupling);

    route_response resp;
    resp.id = req.id;
    resp.device = req.device;
    resp.tool = tools::tool_selection{req.tool, req.options}.canonical();
    resp.swaps = report.swap_count;
    resp.legal = report.valid;
    resp.validation_error = report.error;
    resp.depth = routed.physical.depth();
    const int logical_depth = logical.depth();
    if (logical_depth > 0) {
        resp.depth_ratio = static_cast<double>(routed.physical.depth()) /
                           static_cast<double>(logical_depth);
    }
    if (req.emit_qasm) resp.qasm = qasm::write(routed.physical);
    if (req.timing) resp.seconds = seconds;
    return resp;
}

certify_response engine::certify(const certify_request& req) {
    const auto entry = device_for(req.device);
    const auto instance = generate_instance(entry->device, req.generate);

    exact::olsq_options options;
    // Same bracketing as `qubikos_cli certify`: the generator's count is
    // provably optimal, so SAT at k and UNSAT at k-1 settle it; searching
    // one past the declared count detects a (hypothetical) generator bug
    // as a mismatch instead of an abort.
    options.min_swaps = instance.optimal_swaps > 0 ? instance.optimal_swaps - 1 : 0;
    options.max_swaps = instance.optimal_swaps + 1;
    options.conflict_limit = req.conflict_limit;

    cpu_stopwatch timer;
    const auto result = exact::solve_optimal(instance.logical, entry->device.coupling, options);

    certify_response resp;
    resp.id = req.id;
    resp.device = req.device;
    resp.declared_swaps = instance.optimal_swaps;
    resp.solver_swaps = result.optimal_swaps;
    resp.confirmed = result.solved && result.optimal_swaps == instance.optimal_swaps;
    resp.aborted = result.aborted;
    if (req.timing) resp.seconds = timer.seconds();
    return resp;
}

engine::cache_stats engine::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace qubikos::serve
