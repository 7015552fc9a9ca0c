// The fixed tool table behind the registry (src/tools/builtin.cpp).
#pragma once

#include <functional>
#include <vector>

#include "tools/registry.hpp"

namespace qubikos::tools::detail {

/// A tool's routing function with its options already bound: routes
/// `logical` on `coupling`, whose distances `dist` serves, and stores the
/// router's counters, if it reports any, in `stats` (when non-null).
using bound_route = std::function<routed_circuit(const circuit& logical, const graph& coupling,
                                                 const distance_provider& dist,
                                                 obs::snapshot* stats)>;

struct tool_entry {
    tool_info info;
    /// Binds a fully-resolved option object (every schema key present,
    /// validated by resolve_options).
    std::function<bound_route(const json::value& resolved)> bind;
};

/// Every tool, in listing order. Built once on first use and immutable
/// afterwards, so lookups need no lock.
[[nodiscard]] const std::vector<tool_entry>& tool_table();

}  // namespace qubikos::tools::detail
