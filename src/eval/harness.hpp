// Tool harness: the named-tool type every consumer routes through and
// the per-(tool, instance) record primitive the campaign worker runs
// (the Sec. IV-B experiment's unit of work).
//
// Every routed result is validated before it is counted; an invalid
// result is recorded with valid = false and excluded from the
// aggregates (none of the shipped tools produce one).
#pragma once

#include <functional>
#include <string>

#include "arch/architectures.hpp"
#include "circuit/routed.hpp"
#include "core/suite.hpp"
#include "eval/metrics.hpp"
#include "obs/obs.hpp"

namespace qubikos::eval {

/// Former name of the counter list a tool fills; perfbench still
/// spells it. Goes with `tool::run`/`run_stats` at the next benchmark
/// change.
using tool_run_stats = obs::snapshot;

/// A named QLS tool: circuit + coupling graph -> routed circuit.
struct tool {
    std::string name;
    /// Routes `logical` on `coupling`. A non-null `initial` is the
    /// mapping to route from (the standalone-router mode of Sec. IV-C);
    /// a tool that refines its own placement throws
    /// std::invalid_argument for it. A non-null `stats` receives the
    /// router's counters, if it reports any.
    std::function<routed_circuit(const circuit& logical, const graph& coupling,
                                 const mapping* initial, obs::snapshot* stats)>
        route;
    /// Frozen spellings perfbench still calls; tools::make_tool fills
    /// them from the same closure as `route`. They go at the next
    /// benchmark change — call `route` everywhere else.
    std::function<routed_circuit(const circuit&, const graph&)> run;
    std::function<routed_circuit(const circuit&, const graph&, obs::snapshot&)> run_stats;
};

/// Runs one tool on one instance, from `initial` when non-null, and
/// fills the complete run_record (seconds is thread-CPU time around the
/// tool invocation only; validation is untimed). The campaign worker's
/// per-unit primitive. When telemetry is enabled and the instance
/// carries a planted mapping, a valid route's initial mapping is also
/// compared with it (eval/placement.hpp) and published as the
/// placement.* counters — to obs only, never into `stats`, so record
/// bytes do not change.
[[nodiscard]] run_record run_tool_record(const tool& t, const core::benchmark_instance& instance,
                                         const arch::architecture& device,
                                         const mapping* initial);

}  // namespace qubikos::eval
