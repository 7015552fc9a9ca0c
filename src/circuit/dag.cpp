#include "circuit/dag.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace qubikos {

gate_dag::gate_dag(const circuit& c) {
    // Last DAG node seen per qubit while sweeping the circuit.
    std::vector<int> last(static_cast<std::size_t>(c.num_qubits()), -1);
    for (std::size_t i = 0; i < c.size(); ++i) {
        const gate& g = c[i];
        if (!g.is_two_qubit()) continue;
        const int node = static_cast<int>(gates_.size());
        gates_.push_back(g);
        circuit_indices_.push_back(i);
        preds_.emplace_back();
        succs_.emplace_back();
        for (const int q : {g.q0, g.q1}) {
            const int prev = last[static_cast<std::size_t>(q)];
            if (prev != -1 &&
                std::find(preds_[static_cast<std::size_t>(node)].begin(),
                          preds_[static_cast<std::size_t>(node)].end(),
                          prev) == preds_[static_cast<std::size_t>(node)].end()) {
                preds_[static_cast<std::size_t>(node)].push_back(prev);
                succs_[static_cast<std::size_t>(prev)].push_back(node);
            }
            last[static_cast<std::size_t>(q)] = node;
        }
    }
}

void gate_dag::check_node(int node) const {
    if (node < 0 || node >= num_nodes()) {
        throw std::out_of_range("gate_dag: node " + std::to_string(node) + " out of range");
    }
}

const gate& gate_dag::node_gate(int node) const {
    check_node(node);
    return gates_[static_cast<std::size_t>(node)];
}

std::size_t gate_dag::circuit_index(int node) const {
    check_node(node);
    return circuit_indices_[static_cast<std::size_t>(node)];
}

const std::vector<int>& gate_dag::preds(int node) const {
    check_node(node);
    return preds_[static_cast<std::size_t>(node)];
}

const std::vector<int>& gate_dag::succs(int node) const {
    check_node(node);
    return succs_[static_cast<std::size_t>(node)];
}

std::vector<char> gate_dag::ancestors(int node) const {
    check_node(node);
    std::vector<char> seen(static_cast<std::size_t>(num_nodes()), 0);
    std::deque<int> queue{node};
    while (!queue.empty()) {
        const int cur = queue.front();
        queue.pop_front();
        for (const int p : preds_[static_cast<std::size_t>(cur)]) {
            if (!seen[static_cast<std::size_t>(p)]) {
                seen[static_cast<std::size_t>(p)] = 1;
                queue.push_back(p);
            }
        }
    }
    return seen;
}

std::vector<int> gate_dag::asap_levels() const {
    std::vector<int> level(static_cast<std::size_t>(num_nodes()), 0);
    for (int node = 0; node < num_nodes(); ++node) {
        for (const int p : preds_[static_cast<std::size_t>(node)]) {
            level[static_cast<std::size_t>(node)] =
                std::max(level[static_cast<std::size_t>(node)],
                         level[static_cast<std::size_t>(p)] + 1);
        }
    }
    return level;
}

std::size_t gate_dag::num_edges() const {
    std::size_t total = 0;
    for (const auto& p : preds_) total += p.size();
    return total;
}

}  // namespace qubikos
