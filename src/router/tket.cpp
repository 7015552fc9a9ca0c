// qubikos-lint: hot-path — the slice cost runs once per candidate per swap decision.
#include "router/tket.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "circuit/dag.hpp"
#include "router/common.hpp"

namespace qubikos::router {

namespace {

/// Partitions the not-yet-executed DAG nodes into ASAP slices relative to
/// the current execution state: slice 0 is the front layer, slice s the
/// gates that become ready once slices < s finish. Node index order is a
/// topological order, so one forward sweep from the smallest front node
/// (all below it have executed) suffices. Fills the first
/// min(depth, max_slices) lists of `slices` and returns that count; both
/// buffers are the caller's, kept across decisions, and `slices` grows
/// only as deep as the remaining DAG reaches.
int upcoming_slices(const gate_dag& dag, const dag_frontier& frontier, int max_slices,
                    std::vector<int>& level, std::vector<std::vector<int>>& slices) {
    int filled = 0;
    const auto& front = frontier.front();
    for (int node = *std::min_element(front.begin(), front.end()); node < dag.num_nodes();
         ++node) {
        if (frontier.executed(node)) continue;
        int lvl = 0;
        for (const int pred : dag.preds(node)) {
            if (frontier.executed(pred)) continue;
            lvl = std::max(lvl, level[static_cast<std::size_t>(pred)] + 1);
        }
        level[static_cast<std::size_t>(node)] = lvl;
        if (lvl >= max_slices) continue;
        // A node at level l has a predecessor at level l - 1 earlier in
        // the sweep, so levels first appear in increasing order.
        if (lvl == filled) {
            if (slices.size() == static_cast<std::size_t>(lvl)) slices.emplace_back();
            slices[static_cast<std::size_t>(lvl)].clear();
            ++filled;
        }
        slices[static_cast<std::size_t>(lvl)].push_back(node);
    }
    return filled;
}

}  // namespace

routed_circuit route_tket(const circuit& logical, const graph& coupling,
                          const distance_provider& dist, const tket_options& options,
                          const mapping* initial) {
    const mapping start = initial != nullptr
                              ? *initial
                              : greedy_placement(logical, coupling, dist, options.placement_window);
    const gate_dag dag(logical);

    mapping current = start;
    dag_frontier frontier(dag);
    emission_buffer emit(logical, dag, coupling.num_vertices());
    const int escape_after = stagnation_threshold(dist);
    int swaps_since_progress = 0;
    edge last_swap;
    // Reused across decision points.
    swap_candidates candidate_set(coupling);
    std::vector<edge> candidates;
    std::vector<int> level(static_cast<std::size_t>(dag.num_nodes()));
    std::vector<std::vector<int>> slices;

    const auto gate_distance_after = [&](int node, int pa, int pb) {
        const gate& g = dag.node_gate(node);
        auto moved = [pa, pb](int p) { return p == pa ? pb : (p == pb ? pa : p); };
        return dist(moved(current.physical(g.q0)), moved(current.physical(g.q1)));
    };

    while (!frontier.done()) {
        if (frontier.execute_adjacent(current, candidate_set, &emit)) swaps_since_progress = 0;
        if (frontier.done()) break;

        if (swaps_since_progress > escape_after) {
            force_route(frontier.nearest_front_gate(current, dist), dag, coupling, dist, current,
                        &emit);
            swaps_since_progress = 0;
            continue;
        }

        const int num_slices =
            upcoming_slices(dag, frontier, options.lookahead_slices, level, slices);
        for (const int node : frontier.front()) {
            const gate& g = dag.node_gate(node);
            candidate_set.add(current.physical(g.q0));
            candidate_set.add(current.physical(g.q1));
        }
        candidate_set.take(candidates);

        double best_cost = std::numeric_limits<double>::infinity();
        edge best;
        bool found = false;
        for (const auto& cand : candidates) {
            // Never immediately undo the previous swap (2-cycle guard).
            if (swaps_since_progress > 0 && cand == last_swap) continue;
            double cost = 0.0;
            double weight = 1.0;
            for (int s = 0; s < num_slices; ++s) {
                for (const int node : slices[static_cast<std::size_t>(s)]) {
                    cost += weight * gate_distance_after(node, cand.a, cand.b);
                }
                weight *= options.slice_discount;
            }
            if (cost < best_cost) {
                best_cost = cost;
                best = cand;
                found = true;
            }
        }
        if (!found) {
            // Every candidate excluded: fall back to forced routing.
            force_route(frontier.front().front(), dag, coupling, dist, current, &emit);
            swaps_since_progress = 0;
            continue;
        }

        emit.emit_swap(best.a, best.b);
        current.swap_physical(best.a, best.b);
        last_swap = best;
        ++swaps_since_progress;
    }

    emit.finish(current);
    routed_circuit out;
    out.initial = start;
    out.physical = emit.take();
    return out;
}

}  // namespace qubikos::router
