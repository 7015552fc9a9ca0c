// Undirected simple graph.
//
// Used for both device coupling graphs GC(P, EP) and program interaction
// graphs GI(Q, EQ). Vertices are dense integers 0..n-1; parallel edges and
// self-loops are rejected because neither graph kind permits them.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace qubikos {

/// An undirected edge; normalized so that first < second.
struct edge {
    int a = 0;
    int b = 0;

    edge() = default;
    edge(int u, int v) : a(u < v ? u : v), b(u < v ? v : u) {}

    friend bool operator==(const edge&, const edge&) = default;
    friend auto operator<=>(const edge&, const edge&) = default;
};

class graph {
public:
    graph() = default;
    explicit graph(int num_vertices);
    graph(int num_vertices, const std::vector<edge>& edges);

    [[nodiscard]] int num_vertices() const { return static_cast<int>(adjacency_.size()); }
    [[nodiscard]] int num_edges() const { return static_cast<int>(edges_.size()); }

    /// Appends an isolated vertex and returns its index.
    int add_vertex();

    /// Adds edge (u,v); throws on out-of-range, self-loop or duplicate.
    void add_edge(int u, int v);

    /// Adds edge (u,v) unless it already exists; returns true if added.
    bool add_edge_if_absent(int u, int v);

    [[nodiscard]] bool has_edge(int u, int v) const;
    [[nodiscard]] int degree(int v) const;
    [[nodiscard]] const std::vector<int>& neighbors(int v) const;
    [[nodiscard]] const std::vector<edge>& edges() const { return edges_; }

    [[nodiscard]] int max_degree() const;

    /// Human-readable one-line summary for diagnostics.
    [[nodiscard]] std::string describe() const;

private:
    void check_vertex(int v, const char* who) const;
    static std::uint64_t key(int u, int v);

    std::vector<std::vector<int>> adjacency_;
    std::vector<edge> edges_;
    std::unordered_set<std::uint64_t> edge_set_;
};

}  // namespace qubikos
