#include "graph/token_swapping.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/bfs.hpp"

namespace qubikos {

namespace {

struct state {
    const graph* g;
    const distance_matrix* dist;
    std::vector<int> pos;     // token -> vertex
    std::vector<int> target;  // token -> vertex
    std::vector<int> holder;  // vertex -> token or -1
    std::vector<edge> swaps;

    void apply(int u, int v) {
        const int tu = holder[static_cast<std::size_t>(u)];
        const int tv = holder[static_cast<std::size_t>(v)];
        holder[static_cast<std::size_t>(u)] = tv;
        holder[static_cast<std::size_t>(v)] = tu;
        if (tu != -1) pos[static_cast<std::size_t>(tu)] = v;
        if (tv != -1) pos[static_cast<std::size_t>(tv)] = u;
        swaps.emplace_back(u, v);
    }

    /// Change in token t's distance if it moved from u to v (0 for blank).
    [[nodiscard]] int delta(int token, int from, int to) const {
        if (token == -1) return 0;
        const int tgt = target[static_cast<std::size_t>(token)];
        return (*dist)(to, tgt) - (*dist)(from, tgt);
    }

    [[nodiscard]] long total_distance() const {
        long total = 0;
        for (std::size_t t = 0; t < pos.size(); ++t) {
            total += (*dist)(pos[t], target[t]);
        }
        return total;
    }
};

/// Realizes the remaining displacement exactly: decompose the required
/// permutation into transpositions and execute each transposition of
/// vertices (a,b) as swaps down the path and back (2k-1 swaps for a
/// length-k path). Provably terminating finisher for the greedy phase.
void finish_by_transpositions(state& s) {
    for (std::size_t t = 0; t < s.pos.size(); ++t) {
        const int from = s.pos[t];
        const int to = s.target[t];
        if (from == to) continue;
        const auto path = shortest_path(*s.g, from, to);
        if (path.size() < 2) {
            throw std::invalid_argument("token_swapping: targets not connected");
        }
        // Move the token to its destination...
        for (std::size_t i = 0; i + 1 < path.size(); ++i) s.apply(path[i], path[i + 1]);
        // ...and roll the displaced intermediates back one step.
        for (std::size_t i = path.size() - 1; i-- > 1;) s.apply(path[i - 1], path[i]);
    }
}

}  // namespace

std::vector<edge> token_swapping_sequence(const graph& g, const std::vector<int>& current,
                                          const std::vector<int>& target) {
    if (current.size() != target.size()) {
        throw std::invalid_argument("token_swapping: placement size mismatch");
    }
    const int n = g.num_vertices();
    state s;
    s.g = &g;
    const distance_matrix dist(g);
    s.dist = &dist;
    s.pos = current;
    s.target = target;
    s.holder.assign(static_cast<std::size_t>(n), -1);
    for (std::size_t t = 0; t < current.size(); ++t) {
        for (const int v : {current[t], target[t]}) {
            if (v < 0 || v >= n) throw std::invalid_argument("token_swapping: vertex range");
        }
        if (s.holder[static_cast<std::size_t>(current[t])] != -1) {
            throw std::invalid_argument("token_swapping: current placement not injective");
        }
        s.holder[static_cast<std::size_t>(current[t])] = static_cast<int>(t);
        if (dist(current[t], target[t]) == distance_matrix::unreachable()) {
            throw std::invalid_argument("token_swapping: target unreachable");
        }
    }
    {
        std::vector<char> seen(static_cast<std::size_t>(n), 0);
        for (const int v : target) {
            if (seen[static_cast<std::size_t>(v)]) {
                throw std::invalid_argument("token_swapping: target placement not injective");
            }
            seen[static_cast<std::size_t>(v)] = 1;
        }
    }

    long best_total = s.total_distance();
    int stagnation = 0;
    const int max_stagnation = 2 * n + 8;

    while (s.total_distance() > 0) {
        bool acted = false;

        // Phase 1: happy swaps (both tokens strictly improve, net -2).
        for (const auto& e : g.edges()) {
            const int tu = s.holder[static_cast<std::size_t>(e.a)];
            const int tv = s.holder[static_cast<std::size_t>(e.b)];
            if (tu == -1 || tv == -1) continue;
            if (s.delta(tu, e.a, e.b) < 0 && s.delta(tv, e.b, e.a) < 0) {
                s.apply(e.a, e.b);
                acted = true;
                break;
            }
        }

        // Phase 2: move an unhappy token into an adjacent blank (net -1).
        if (!acted) {
            for (const auto& e : g.edges()) {
                const int tu = s.holder[static_cast<std::size_t>(e.a)];
                const int tv = s.holder[static_cast<std::size_t>(e.b)];
                if (tu != -1 && tv == -1 && s.delta(tu, e.a, e.b) < 0) {
                    s.apply(e.a, e.b);
                    acted = true;
                    break;
                }
                if (tv != -1 && tu == -1 && s.delta(tv, e.b, e.a) < 0) {
                    s.apply(e.a, e.b);
                    acted = true;
                    break;
                }
            }
        }

        // Phase 3: surf the farthest unhappy token one step along a
        // shortest path (net 0 at worst).
        if (!acted) {
            int worst = -1;
            for (std::size_t t = 0; t < s.pos.size(); ++t) {
                const int d = dist(s.pos[t], s.target[t]);
                if (d > 0 &&
                    (worst == -1 ||
                     d > dist(s.pos[static_cast<std::size_t>(worst)],
                              s.target[static_cast<std::size_t>(worst)]))) {
                    worst = static_cast<int>(t);
                }
            }
            const int u = s.pos[static_cast<std::size_t>(worst)];
            const int tgt = s.target[static_cast<std::size_t>(worst)];
            for (const int v : g.neighbors(u)) {
                if (dist(v, tgt) < dist(u, tgt)) {
                    s.apply(u, v);
                    acted = true;
                    break;
                }
            }
        }

        if (!acted) break;  // defensive; phase 3 always acts

        const long now = s.total_distance();
        if (now < best_total) {
            best_total = now;
            stagnation = 0;
        } else if (++stagnation > max_stagnation) {
            break;  // greedy is cycling; hand over to the exact finisher
        }
    }

    if (s.total_distance() > 0) finish_by_transpositions(s);
    return std::move(s.swaps);
}

std::size_t token_swap_distance(const graph& g, const std::vector<int>& current,
                                const std::vector<int>& target) {
    return token_swapping_sequence(g, current, target).size();
}

}  // namespace qubikos
