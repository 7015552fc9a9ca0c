#include "eval/harness.hpp"

#include <stdexcept>

#include "tools/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::eval {

std::vector<tool> paper_toolbox(const json::value& overrides,
                                std::shared_ptr<const tools::routing_context> context) {
    json::object unclaimed = overrides.is_null() ? json::object{} : overrides.as_object();
    std::vector<tool> lineup;
    for (const auto& name : tools::paper_tool_names()) {
        lineup.push_back(tools::make_tool(
            name, overrides.contains(name) ? overrides.at(name) : json::value{}, context));
        unclaimed.erase(name);
    }
    if (!unclaimed.empty()) {
        std::string known;
        for (const auto& n : tools::paper_tool_names()) known += (known.empty() ? "" : "|") + n;
        throw std::invalid_argument("paper_toolbox: unknown tool '" + unclaimed.begin()->first +
                                    "' (" + known + ")");
    }
    return lineup;
}

run_record run_tool_record(const tool& t, const core::benchmark_instance& instance,
                           const arch::architecture& device) {
    run_record record;
    record.tool = t.name;
    record.designed_swaps = instance.optimal_swaps;
    cpu_stopwatch timer;
    const routed_circuit routed = t.run_stats(instance.logical, device.coupling, record.stats);
    record.seconds = timer.seconds();
    const auto report = validate_routed(instance.logical, routed, device.coupling);
    record.valid = report.valid;
    record.measured_swaps = report.swap_count;
    const int logical_depth = instance.logical.depth();
    if (logical_depth > 0) {
        record.depth_ratio = static_cast<double>(routed.physical.depth()) /
                             static_cast<double>(logical_depth);
    }
    return record;
}

evaluation_result evaluate_suite(const core::suite& s, const arch::architecture& device,
                                 const std::vector<tool>& tools, int threads) {
    if (threads < 0) throw std::invalid_argument("evaluate_suite: threads must be >= 0");
    evaluation_result result;
    const std::size_t num_tools = tools.size();
    const std::size_t num_pairs = s.instances.size() * num_tools;
    if (num_pairs == 0) return result;

    // Each (instance, tool) pair fills its preallocated slot; the slot
    // index encodes the serial iteration order (instance-major), so the
    // records come out identical to the serial loop regardless of
    // scheduling.
    result.records.resize(num_pairs);
    const std::size_t width =
        std::min(thread_pool::resolve_threads(static_cast<std::size_t>(threads)), num_pairs);
    thread_pool::shared().parallel_for_slots(
        0, num_pairs, width,
        [&](std::size_t pair, std::size_t) {
            result.records[pair] =
                run_tool_record(tools[pair % num_tools], s.instances[pair / num_tools], device);
        });

    for (const auto& record : result.records) {
        if (!record.valid) ++result.invalid_runs;
    }
    result.cells = aggregate(result.records);
    return result;
}

}  // namespace qubikos::eval
