// qubikos-lint: hot-path — dag_frontier/score kernels run once per gate per trial.
#include "router/common.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/bfs.hpp"

namespace qubikos::router {

// --- dag_frontier ----------------------------------------------------------

dag_frontier::dag_frontier(const gate_dag& dag) { reset(dag); }

void dag_frontier::reset(const gate_dag& dag) {
    dag_ = &dag;
    executed_ = 0;
    front_.clear();
    remaining_preds_.resize(static_cast<std::size_t>(dag.num_nodes()));
    executed_flags_.assign(static_cast<std::size_t>(dag.num_nodes()), 0);
    for (int node = 0; node < dag.num_nodes(); ++node) {
        remaining_preds_[static_cast<std::size_t>(node)] =
            static_cast<int>(dag.preds(node).size());
        if (remaining_preds_[static_cast<std::size_t>(node)] == 0) front_.push_back(node);
    }
}

void dag_frontier::execute(int node) {
    const auto it = std::find(front_.begin(), front_.end(), node);
    if (it == front_.end()) {
        throw std::logic_error("dag_frontier::execute: node not in front layer");
    }
    front_.erase(it);
    executed_flags_[static_cast<std::size_t>(node)] = 1;
    ++executed_;
    for (const int succ : dag_->succs(node)) {
        if (--remaining_preds_[static_cast<std::size_t>(succ)] == 0) front_.push_back(succ);
    }
}

bool dag_frontier::execute_adjacent(const mapping& current, const swap_candidates& coupled,
                                    emission_buffer* emit) {
    bool progressed = false;
    for (;;) {
        executable_.clear();
        for (const int node : front_) {
            const gate& g = dag_->node_gate(node);
            if (coupled.adjacent(current.physical(g.q0), current.physical(g.q1))) {
                executable_.push_back(node);
            }
        }
        if (executable_.empty()) return progressed;
        for (const int node : executable_) {
            if (emit != nullptr) emit->execute_two_qubit(node, current);
            execute(node);
        }
        progressed = true;
    }
}

int dag_frontier::nearest_front_gate(const mapping& current,
                                     const distance_provider& dist) const {
    int best_node = front_.front();
    int best_distance = std::numeric_limits<int>::max();
    for (const int node : front_) {
        const gate& g = dag_->node_gate(node);
        const int d = dist(current.physical(g.q0), current.physical(g.q1));
        if (d < best_distance) {
            best_distance = d;
            best_node = node;
        }
    }
    return best_node;
}

void dag_frontier::lookahead_set(int limit, std::vector<int>& out, std::vector<char>& seen,
                                 std::vector<int>& queue) const {
    out.clear();
    if (limit <= 0) return;
    // `seen` is all-zero between calls: resizing it keeps it so, and only
    // the entries marked here (the front and `out`) are cleared on return,
    // so a call costs the nodes it visits, not the DAG's size.
    seen.resize(static_cast<std::size_t>(dag_->num_nodes()), 0);
    queue.clear();
    // The deque of the allocating version becomes a vector plus a head
    // cursor: pops never reclaim space, so the traversal order (and the
    // returned set) is unchanged while the storage is reusable.
    std::size_t head = 0;
    for (const int node : front_) {
        seen[static_cast<std::size_t>(node)] = 1;
        queue.push_back(node);
    }
    while (head < queue.size() && static_cast<int>(out.size()) < limit) {
        const int cur = queue[head++];
        for (const int succ : dag_->succs(cur)) {
            if (seen[static_cast<std::size_t>(succ)] ||
                executed_flags_[static_cast<std::size_t>(succ)]) {
                continue;
            }
            seen[static_cast<std::size_t>(succ)] = 1;
            out.push_back(succ);
            if (static_cast<int>(out.size()) >= limit) break;
            queue.push_back(succ);
        }
    }
    for (const int node : front_) seen[static_cast<std::size_t>(node)] = 0;
    for (const int node : out) seen[static_cast<std::size_t>(node)] = 0;
}

// --- emission_buffer --------------------------------------------------------

emission_buffer::emission_buffer(const circuit& logical, const gate_dag& dag, int num_physical)
    : logical_(&logical), dag_(&dag), physical_(num_physical) {
    per_qubit_.resize(static_cast<std::size_t>(logical.num_qubits()));
    cursor_.assign(static_cast<std::size_t>(logical.num_qubits()), 0);
    for (std::size_t i = 0; i < logical.size(); ++i) {
        const gate& g = logical[i];
        per_qubit_[static_cast<std::size_t>(g.q0)].push_back(i);
        if (g.is_two_qubit()) per_qubit_[static_cast<std::size_t>(g.q1)].push_back(i);
    }
}

void emission_buffer::drain_single_qubit(int program_qubit, std::size_t before_index,
                                         const mapping& current) {
    auto& cursor = cursor_[static_cast<std::size_t>(program_qubit)];
    const auto& list = per_qubit_[static_cast<std::size_t>(program_qubit)];
    while (cursor < list.size() && list[cursor] < before_index) {
        const gate& g = (*logical_)[list[cursor]];
        if (g.is_two_qubit()) {
            throw std::logic_error(
                "emission_buffer: two-qubit gate executed out of dependency order");
        }
        physical_.append(gate::single(g.kind, current.physical(program_qubit), g.angle));
        ++cursor;
    }
}

void emission_buffer::execute_two_qubit(int node, const mapping& current) {
    const std::size_t index = dag_->circuit_index(node);
    const gate& g = dag_->node_gate(node);
    drain_single_qubit(g.q0, index, current);
    drain_single_qubit(g.q1, index, current);
    physical_.append(gate::two(g.kind, current.physical(g.q0), current.physical(g.q1)));
    // Step both cursors past this gate.
    ++cursor_[static_cast<std::size_t>(g.q0)];
    ++cursor_[static_cast<std::size_t>(g.q1)];
}

void emission_buffer::emit_swap(int pa, int pb) {
    physical_.append(gate::swap_gate(pa, pb));
    ++swaps_;
}

void emission_buffer::finish(const mapping& current) {
    for (int q = 0; q < logical_->num_qubits(); ++q) {
        drain_single_qubit(q, logical_->size(), current);
    }
}

void emission_buffer::reset() {
    physical_.clear_gates();
    std::fill(cursor_.begin(), cursor_.end(), 0);
    swaps_ = 0;
}

// --- greedy placement -------------------------------------------------------

weighted_interactions::weighted_interactions(int num_vertices,
                                             std::vector<std::pair<edge, long>> pairs)
    : partners(static_cast<std::size_t>(num_vertices)),
      degree(static_cast<std::size_t>(num_vertices), 0) {
    // In ascending (a, b) order every partner list fills in ascending order.
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < pairs.size();) {
        const edge e = pairs[i].first;
        long weight = 0;
        for (; i < pairs.size() && pairs[i].first == e; ++i) weight += pairs[i].second;
        partners[static_cast<std::size_t>(e.a)].emplace_back(e.b, weight);
        partners[static_cast<std::size_t>(e.b)].emplace_back(e.a, weight);
        degree[static_cast<std::size_t>(e.a)] += weight;
        degree[static_cast<std::size_t>(e.b)] += weight;
    }
}

weighted_interactions weighted_interactions::of(const circuit& logical, std::size_t gate_window) {
    std::vector<std::pair<edge, long>> pairs;
    for (const auto& g : logical.gates()) {
        if (!g.is_two_qubit()) continue;
        if (gate_window != 0 && pairs.size() >= gate_window) break;
        pairs.emplace_back(edge(g.q0, g.q1), 1);
    }
    return {logical.num_qubits(), std::move(pairs)};
}

std::vector<int> greedy_positions(const weighted_interactions& g, const graph& coupling,
                                  const distance_provider& dist) {
    const int num_vertices = g.num_vertices();
    const int num_physical = coupling.num_vertices();
    if (num_vertices > num_physical) {
        throw std::invalid_argument("greedy_placement: more program than physical qubits");
    }
    std::vector<int> order(static_cast<std::size_t>(num_vertices));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return g.degree[static_cast<std::size_t>(a)] > g.degree[static_cast<std::size_t>(b)];
    });

    std::vector<int> position(static_cast<std::size_t>(num_vertices), -1);
    std::vector<char> used(static_cast<std::size_t>(num_physical), 0);
    for (const int v : order) {
        int best = -1;
        long best_cost = 0;
        for (int p = 0; p < num_physical; ++p) {
            if (used[static_cast<std::size_t>(p)]) continue;
            long cost = 0;
            for (const auto& [partner, weight] : g.partners[static_cast<std::size_t>(v)]) {
                const int pp = position[static_cast<std::size_t>(partner)];
                // Source the lookup from the *placed* endpoint: distances
                // are symmetric, so the value is unchanged, but a lazy
                // provider then only materializes rows for the handful of
                // already-placed partners instead of every candidate p.
                if (pp != -1) cost += weight * dist(pp, p);
            }
            // Prefer low distance to placed partners; ties by high degree
            // (center of the device), encoded by subtracting degree
            // scaled below any distance contribution.
            const long score = cost * 1024 - coupling.degree(p);
            if (best == -1 || score < best_cost) {
                best = p;
                best_cost = score;
            }
        }
        position[static_cast<std::size_t>(v)] = best;
        used[static_cast<std::size_t>(best)] = 1;
    }
    return position;
}

mapping greedy_placement(const circuit& logical, const graph& coupling,
                         const distance_provider& dist, std::size_t gate_window) {
    weighted_interactions g = weighted_interactions::of(logical, gate_window);
    for (std::size_t v = 0; v < g.partners.size(); ++v) {
        for (auto& partner : g.partners[v]) partner.second = 1;
        g.degree[v] = static_cast<long>(g.partners[v].size());
    }
    return mapping::from_program_to_physical(greedy_positions(g, coupling, dist),
                                             coupling.num_vertices());
}

// --- force_route -------------------------------------------------------------

int shortest_path_step(const graph& coupling, const std::int32_t* to_target, int from) {
    for (const int pn : coupling.neighbors(from)) {
        if (to_target[pn] < to_target[from]) return pn;
    }
    throw std::logic_error("force_route: no distance-decreasing neighbor");
}

std::size_t force_route(int node, const gate_dag& dag, const graph& coupling,
                        const distance_provider& dist, mapping& current, emission_buffer* out) {
    const gate& g = dag.node_gate(node);
    int pa = current.physical(g.q0);
    const int pb = current.physical(g.q1);
    // All comparisons read distances *to pb*, so one provider row covers
    // the whole walk (distances are symmetric; values unchanged), and
    // distance 1 is adjacency.
    const std::int32_t* to_pb = dist.row(pb);
    std::size_t swaps = 0;
    while (to_pb[pa] != 1) {
        // Move q0 one step along a shortest path toward q1.
        const int next = shortest_path_step(coupling, to_pb, pa);
        if (out != nullptr) out->emit_swap(pa, next);
        current.swap_physical(pa, next);
        pa = next;
        ++swaps;
    }
    return swaps;
}

int stagnation_threshold(const distance_provider& dist) { return 3 * dist.diameter() + 20; }

circuit reversed(const circuit& c) {
    circuit out(c.num_qubits());
    for (std::size_t i = c.size(); i > 0; --i) out.append(c[i - 1]);
    return out;
}

// --- swap_candidates ----------------------------------------------------------

swap_candidates::swap_candidates(const graph& coupling)
    : edges_(coupling.edges()), marked_((edges_.size() + 63) / 64, 0), lo_word_(marked_.size()) {
    std::sort(edges_.begin(), edges_.end());
    offsets_.push_back(0);
    for (int p = 0; p < coupling.num_vertices(); ++p) {
        for (const int other : coupling.neighbors(p)) {
            const auto rank = std::lower_bound(edges_.begin(), edges_.end(), edge(p, other));
            incident_rank_.push_back(static_cast<int>(rank - edges_.begin()));
            incident_other_.push_back(other);
        }
        offsets_.push_back(static_cast<int>(incident_rank_.size()));
    }
}

void swap_candidates::add(int p) {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(p)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(p) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
        const auto rank = static_cast<std::size_t>(incident_rank_[i]);
        const std::size_t word = rank / 64;
        marked_[word] |= std::uint64_t{1} << (rank % 64);
        lo_word_ = std::min(lo_word_, word);
        hi_word_ = std::max(hi_word_, word + 1);
    }
}

void swap_candidates::take(std::vector<edge>& out) {
    out.clear();
    for (std::size_t word = lo_word_; word < hi_word_; ++word) {
        for (std::uint64_t bits = marked_[word]; bits != 0; bits &= bits - 1) {
            out.push_back(edges_[word * 64 + static_cast<std::size_t>(std::countr_zero(bits))]);
        }
        marked_[word] = 0;
    }
    lo_word_ = marked_.size();
    hi_word_ = 0;
}

bool swap_candidates::adjacent(int u, int v) const {
    const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
    const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
        if (incident_other_[i] == v) return true;
    }
    return false;
}

}  // namespace qubikos::router
