#include "graph/bfs.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace qubikos {

namespace {

void check_sources(const graph& g, const std::vector<int>& sources) {
    if (sources.empty()) throw std::invalid_argument("bfs: empty source set");
    for (const int s : sources) {
        if (s < 0 || s >= g.num_vertices()) {
            throw std::out_of_range("bfs: source " + std::to_string(s) + " out of range");
        }
    }
}

}  // namespace

std::vector<edge> bfs_edge_order(const graph& g, const std::vector<int>& sources) {
    check_sources(g, sources);
    std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
    std::unordered_set<std::uint64_t> emitted;
    const auto key = [](int u, int v) {
        const auto lo = static_cast<std::uint64_t>(std::min(u, v));
        const auto hi = static_cast<std::uint64_t>(std::max(u, v));
        return (hi << 32) | lo;
    };

    std::deque<int> queue;
    for (const int s : sources) {
        if (!seen[static_cast<std::size_t>(s)]) {
            seen[static_cast<std::size_t>(s)] = 1;
            queue.push_back(s);
        }
    }
    std::vector<edge> order;
    while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        for (const int v : g.neighbors(u)) {
            if (emitted.insert(key(u, v)).second) order.emplace_back(u, v);
            if (!seen[static_cast<std::size_t>(v)]) {
                seen[static_cast<std::size_t>(v)] = 1;
                queue.push_back(v);
            }
        }
    }
    return order;
}

std::vector<int> bfs_distances(const graph& g, const std::vector<int>& sources) {
    check_sources(g, sources);
    std::vector<int> dist(static_cast<std::size_t>(g.num_vertices()), -1);
    std::deque<int> queue;
    for (const int s : sources) {
        if (dist[static_cast<std::size_t>(s)] == -1) {
            dist[static_cast<std::size_t>(s)] = 0;
            queue.push_back(s);
        }
    }
    while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        for (const int v : g.neighbors(u)) {
            if (dist[static_cast<std::size_t>(v)] == -1) {
                dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    return dist;
}

std::vector<int> shortest_path(const graph& g, int from, int to) {
    check_sources(g, {from, to});
    std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -2);
    std::deque<int> queue;
    parent[static_cast<std::size_t>(from)] = -1;
    queue.push_back(from);
    while (!queue.empty() && parent[static_cast<std::size_t>(to)] == -2) {
        const int u = queue.front();
        queue.pop_front();
        for (const int v : g.neighbors(u)) {
            if (parent[static_cast<std::size_t>(v)] == -2) {
                parent[static_cast<std::size_t>(v)] = u;
                queue.push_back(v);
            }
        }
    }
    if (parent[static_cast<std::size_t>(to)] == -2) return {};
    std::vector<int> path;
    for (int v = to; v != -1; v = parent[static_cast<std::size_t>(v)]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

}  // namespace qubikos
