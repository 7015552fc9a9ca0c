// Shared per-device routing context.
//
// Every heuristic router needs coupling-graph distances; historically
// each routing call rebuilt them from scratch (O(V*(V+E)) per circuit —
// measurable against small circuits, pure waste in a (tool x instance)
// grid that routes hundreds of circuits on one device). A
// routing_context builds a distance_provider once per device; every
// registry-made tool bound to the context reuses it (tools::make_tool
// falls back to a local computation when handed a different graph), so
// sharing is purely an optimization — results are identical either way.
// Small devices get the dense matrix; at or above
// distance_options::kLazyThreshold vertices the provider serves lazily
// cached BFS rows, so a thousand-qubit device never materializes O(V^2).
#pragma once

#include <memory>

#include "graph/distance.hpp"
#include "graph/graph.hpp"

namespace qubikos::tools {

/// Immutable per-device precomputations shared by registry tools. Owns a
/// copy of the coupling graph so the context never dangles.
class routing_context {
public:
    explicit routing_context(const graph& coupling, distance_options options = {});

    [[nodiscard]] const graph& coupling() const { return coupling_; }
    [[nodiscard]] const distance_provider& distances() const { return dist_; }

    /// True when `g` is the graph this context was built from (vertex
    /// count and edge list compared — O(E), negligible next to routing).
    /// A logically-equal graph with a different edge insertion order
    /// reports false; the tool then computes its own distances, trading
    /// the speedup for guaranteed correctness.
    [[nodiscard]] bool matches(const graph& g) const;

private:
    graph coupling_;
    distance_provider dist_;
};

/// The shared_ptr form tools::make_tool consumes. `options` picks the
/// distance storage; the default chooses by vertex count.
[[nodiscard]] std::shared_ptr<const routing_context> make_routing_context(
    const graph& coupling, distance_options options = {});

}  // namespace qubikos::tools
