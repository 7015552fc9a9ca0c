// Gate dependency DAG D(G2, EG) (Sec. II of the paper).
//
// Nodes are the two-qubit gates of a circuit in circuit order; an edge
// (g, g') exists when g' is the next two-qubit gate after g on a shared
// qubit. Single-qubit gates impose no connectivity constraints and are
// excluded. Prev(g) — everything that must execute before g — is the
// ancestor set in this DAG.
#pragma once

#include <vector>

#include "circuit/circuit.hpp"

namespace qubikos {

class gate_dag {
public:
    /// Builds the DAG over the two-qubit gates (including swaps) of c.
    explicit gate_dag(const circuit& c);

    [[nodiscard]] int num_nodes() const { return static_cast<int>(gates_.size()); }
    /// The node's gate. Nodes are indexed 0..num_nodes()-1 in circuit
    /// order, which is already a topological order.
    [[nodiscard]] const gate& node_gate(int node) const;
    /// Index of the node's gate in the original circuit's gate list.
    [[nodiscard]] std::size_t circuit_index(int node) const;

    [[nodiscard]] const std::vector<int>& preds(int node) const;
    [[nodiscard]] const std::vector<int>& succs(int node) const;

    /// Bitmap over nodes: ancestors[i] != 0 iff i is in Prev(node).
    [[nodiscard]] std::vector<char> ancestors(int node) const;

    /// ASAP level per node (sources are level 0).
    [[nodiscard]] std::vector<int> asap_levels() const;

    /// Total count of immediate dependency edges.
    [[nodiscard]] std::size_t num_edges() const;

private:
    void check_node(int node) const;

    std::vector<gate> gates_;
    std::vector<std::size_t> circuit_indices_;
    std::vector<std::vector<int>> preds_;
    std::vector<std::vector<int>> succs_;
};

}  // namespace qubikos
