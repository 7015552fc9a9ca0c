#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace qubikos {

graph::graph(int num_vertices) {
    if (num_vertices < 0) throw std::invalid_argument("graph: negative vertex count");
    adjacency_.resize(static_cast<std::size_t>(num_vertices));
}

graph::graph(int num_vertices, const std::vector<edge>& edges) : graph(num_vertices) {
    for (const auto& e : edges) add_edge(e.a, e.b);
}

int graph::add_vertex() {
    adjacency_.emplace_back();
    return num_vertices() - 1;
}

void graph::check_vertex(int v, const char* who) const {
    if (v < 0 || v >= num_vertices()) {
        throw std::out_of_range(std::string(who) + ": vertex " + std::to_string(v) +
                                " out of range (n=" + std::to_string(num_vertices()) + ")");
    }
}

std::uint64_t graph::key(int u, int v) {
    const auto lo = static_cast<std::uint64_t>(u < v ? u : v);
    const auto hi = static_cast<std::uint64_t>(u < v ? v : u);
    return (hi << 32) | lo;
}

void graph::add_edge(int u, int v) {
    if (!add_edge_if_absent(u, v)) {
        throw std::invalid_argument("graph::add_edge: duplicate edge (" + std::to_string(u) +
                                    "," + std::to_string(v) + ")");
    }
}

bool graph::add_edge_if_absent(int u, int v) {
    check_vertex(u, "graph::add_edge");
    check_vertex(v, "graph::add_edge");
    if (u == v) throw std::invalid_argument("graph::add_edge: self-loop at " + std::to_string(u));
    if (!edge_set_.insert(key(u, v)).second) return false;
    adjacency_[static_cast<std::size_t>(u)].push_back(v);
    adjacency_[static_cast<std::size_t>(v)].push_back(u);
    edges_.emplace_back(u, v);
    return true;
}

bool graph::has_edge(int u, int v) const {
    if (u < 0 || v < 0 || u >= num_vertices() || v >= num_vertices() || u == v) return false;
    return edge_set_.contains(key(u, v));
}

int graph::degree(int v) const {
    check_vertex(v, "graph::degree");
    return static_cast<int>(adjacency_[static_cast<std::size_t>(v)].size());
}

const std::vector<int>& graph::neighbors(int v) const {
    check_vertex(v, "graph::neighbors");
    return adjacency_[static_cast<std::size_t>(v)];
}

int graph::max_degree() const {
    int best = 0;
    for (const auto& adj : adjacency_) best = std::max(best, static_cast<int>(adj.size()));
    return best;
}

std::string graph::describe() const {
    return "graph(n=" + std::to_string(num_vertices()) + ", m=" + std::to_string(num_edges()) +
           ", max_deg=" + std::to_string(max_degree()) + ")";
}

}  // namespace qubikos
