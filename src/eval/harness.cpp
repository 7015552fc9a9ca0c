#include "eval/harness.hpp"

#include "util/stopwatch.hpp"

namespace qubikos::eval {

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
    return record;
}

}  // namespace qubikos::eval
