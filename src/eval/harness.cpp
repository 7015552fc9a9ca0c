#include "eval/harness.hpp"

#include <cstdint>

#include "eval/placement.hpp"
#include "util/stopwatch.hpp"

namespace qubikos::eval {

namespace {

/// Publishes how far `chosen` is from the instance's planted mapping as
/// placement.* counters. Telemetry only: record.stats never sees them.
void publish_placement(const core::benchmark_instance& instance, const graph& coupling,
                       const mapping& chosen) {
    static const obs::counter_set placement{
        "placement.adjacency_kept", "placement.adjacency_planted", "placement.exact_match",
        "placement.program_qubits", "placement.token_swap_distance"};
    const placement_quality q =
        compare_placements(instance.logical, coupling, chosen, instance.answer.initial);
    const std::uint64_t values[] = {q.adjacency_kept, q.adjacency_planted, q.exact_match,
                                    q.program_qubits, q.token_swap_distance};
    placement.publish(values, nullptr);
}

}  // namespace

run_record run_tool_record(const tool& t, const core::benchmark_instance& instance,
                           const arch::architecture& device, const mapping* initial) {
    run_record record;
    record.tool = t.name;
    record.designed_swaps = instance.optimal_swaps;
    cpu_stopwatch timer;
    const routed_circuit routed =
        t.route(instance.logical, device.coupling, initial, &record.stats);
    record.seconds = timer.seconds();
    const auto report = validate_routed(instance.logical, routed, device.coupling);
    record.valid = report.valid;
    record.measured_swaps = report.swap_count;
    const int logical_depth = instance.logical.depth();
    if (logical_depth > 0) {
        record.depth_ratio = static_cast<double>(routed.physical.depth()) /
                             static_cast<double>(logical_depth);
    }
    // QUEKO/QUEKNO shims carry no planted mapping; an invalid route's
    // mapping is not worth comparing.
    if (obs::enabled() && report.valid && instance.answer.initial.num_program() > 0) {
        publish_placement(instance, device.coupling, routed.initial);
    }
    return record;
}

}  // namespace qubikos::eval
