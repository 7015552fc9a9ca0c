// Tool-evaluation harness: runs QLS tools over a QUBIKOS suite and
// aggregates swap ratios (the Sec. IV-B experiment).
//
// Every routed result is validated before being counted; an invalid
// result is recorded but excluded from the aggregates (and loudly
// reported by the benches — none of the shipped tools produce one).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/architectures.hpp"
#include "circuit/routed.hpp"
#include "core/suite.hpp"
#include "eval/metrics.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace qubikos::tools {
class routing_context;  // tools/context.hpp (tools/ sits above eval/)
}  // namespace qubikos::tools

namespace qubikos::eval {

/// Former name of the counter list tool::run_stats fills; perfbench
/// still spells it.
using tool_run_stats = obs::snapshot;

/// A named QLS tool: circuit + coupling graph -> routed circuit.
/// `run_stats` is the same routing (same options, same seed) that also
/// stores the router's counters in its list argument; the harness
/// always calls it, so a hand-built tool must set it. `run` is the
/// stats-free convenience. Registry tools (tools::make_tool) derive both
/// from one route function.
struct tool {
    std::string name;
    std::function<routed_circuit(const circuit&, const graph&)> run;
    std::function<routed_circuit(const circuit&, const graph&, obs::snapshot&)> run_stats;
};

/// Builds the paper's four-tool lineup (lightsabre, mlqls, qmap, tket)
/// from the tool registry (tools/registry.hpp), which owns the lineup,
/// docs and option schemas. `overrides` is an object keyed by tool name
/// whose values are registry option overrides, e.g.
/// {"lightsabre": {"trials": 4}, "mlqls": {"seed": 7}}; a tool name
/// outside the lineup throws std::invalid_argument, a non-object
/// json::error. A non-null `context`
/// (see tools::make_routing_context) lets every tool share one
/// precomputed distance provider for the device it will run on.
[[nodiscard]] std::vector<tool> paper_toolbox(
    const json::value& overrides = {},
    std::shared_ptr<const tools::routing_context> context = nullptr);

struct evaluation_result {
    std::vector<run_record> records;
    std::vector<ratio_cell> cells;
    int invalid_runs = 0;
};

/// Runs one tool on one instance and fills the complete run_record — the
/// per-pair primitive of evaluate_suite. The campaign worker calls this
/// same function, so a store record and a serial harness record agree
/// field for field by construction (seconds is thread-CPU time around
/// the tool invocation only; validation is untimed).
[[nodiscard]] run_record run_tool_record(const tool& t, const core::benchmark_instance& instance,
                                         const arch::architecture& device);

/// Runs every tool on every instance of the suite. The (tool x instance)
/// grid is embarrassingly parallel: pairs run on a thread pool sized by
/// `threads` (0 = auto via QUBIKOS_THREADS / hardware_concurrency, 1 =
/// serial) and each writes a preallocated record slot, so records keep
/// the serial order (instance-major, tool-minor) and identical swap
/// counts, validity and depth ratios for every thread count. `seconds`
/// is per-record *thread-CPU* time (serial timing semantics): it measures
/// what the tool invocation itself costs and does not inflate when
/// sibling records contend for cores, so records taken at any `threads`
/// are comparable. It still excludes nothing the tool does internally —
/// keep the tools themselves serial (sabre_options::threads = 1) when
/// parallelizing here, both to avoid oversubscription and so a tool's
/// own worker threads don't escape its timing.
[[nodiscard]] evaluation_result evaluate_suite(const core::suite& s,
                                               const arch::architecture& device,
                                               const std::vector<tool>& tools,
                                               int threads = 1);

}  // namespace qubikos::eval
