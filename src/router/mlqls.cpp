// qubikos-lint: hot-path — refinement scores every (vertex, qubit) move per sweep.
#include "router/mlqls.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "router/common.hpp"
#include "router/sabre.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qubikos::router {

namespace {

/// One coarsening level by heavy-edge matching: visits the pairs by
/// weight descending, then (a, b) ascending, and merges a pair when
/// neither end is merged yet. Returns the coarse graph and coarse_of
/// (fine vertex -> coarse vertex).
std::pair<weighted_interactions, std::vector<int>> coarsen(const weighted_interactions& fine) {
    const int num_fine = fine.num_vertices();
    std::vector<std::pair<edge, long>> pairs;
    for (int a = 0; a < num_fine; ++a) {
        for (const auto& [b, w] : fine.partners[static_cast<std::size_t>(a)]) {
            if (b > a) pairs.emplace_back(edge(a, b), w);
        }
    }
    std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
        return x.second > y.second || (x.second == y.second && x.first < y.first);
    });

    std::vector<int> match(static_cast<std::size_t>(num_fine), -1);
    for (const auto& [e, w] : pairs) {
        int& match_a = match[static_cast<std::size_t>(e.a)];
        int& match_b = match[static_cast<std::size_t>(e.b)];
        if (match_a == -1 && match_b == -1) {
            match_a = e.b;
            match_b = e.a;
        }
    }

    std::vector<int> coarse_of(static_cast<std::size_t>(num_fine), -1);
    int next = 0;
    for (int v = 0; v < num_fine; ++v) {
        if (coarse_of[static_cast<std::size_t>(v)] != -1) continue;
        coarse_of[static_cast<std::size_t>(v)] = next;
        const int partner = match[static_cast<std::size_t>(v)];
        if (partner > v) coarse_of[static_cast<std::size_t>(partner)] = next;
        ++next;
    }
    // The same pairs between coarse vertices; a merged pair drops out.
    for (auto& [e, w] : pairs) {
        const int ca = coarse_of[static_cast<std::size_t>(e.a)];
        e = edge(ca, coarse_of[static_cast<std::size_t>(e.b)]);
    }
    std::erase_if(pairs, [](const auto& pair) { return pair.first.a == pair.first.b; });
    return {weighted_interactions(next, std::move(pairs)), std::move(coarse_of)};
}

/// ML-QLS's V-cycle over one circuit: the chain and its coarsest placement
/// are built once per route; each trial copies that placement, then
/// refines and uncoarsens it in buffers reused across levels and trials.
class v_cycle {
public:
    v_cycle(const circuit& logical, const graph& coupling, const distance_provider& dist,
            const mlqls_options& options)
        : coupling_(coupling), dist_(dist), sweeps_(options.refine_sweeps) {
        levels_.push_back(weighted_interactions::of(logical));
        while (levels_.back().num_vertices() > options.coarsest_size) {
            auto [coarse, coarse_of] = coarsen(levels_.back());
            if (coarse.num_vertices() == levels_.back().num_vertices()) break;  // no progress
            coarse_of_.push_back(std::move(coarse_of));
            levels_.push_back(std::move(coarse));
        }
        coarsest_ = greedy_positions(levels_.back(), coupling, dist);
    }

    /// One trial: refines the coarsest placement, then splits it level by
    /// level, refining each. Returns program qubit -> physical qubit.
    const std::vector<int>& place(rng& random) {
        position_ = coarsest_;
        refine(levels_.back(), random);
        for (std::size_t level = coarse_of_.size(); level > 0; --level) {
            uncoarsen(level);
            refine(levels_[level - 1], random);
        }
        return position_;
    }

private:
    /// Projects position_ from `level` onto level - 1: the first fine
    /// vertex of each coarse vertex inherits its qubit, and the others go
    /// to the free qubit nearest to it.
    void uncoarsen(std::size_t level) {
        const auto& coarse_of = coarse_of_[level - 1];
        const auto num_fine = static_cast<std::size_t>(levels_[level - 1].num_vertices());
        const int num_physical = coupling_.num_vertices();
        fine_position_.assign(num_fine, -1);
        used_.assign(static_cast<std::size_t>(num_physical), 0);
        // Coarse vertices sit on distinct qubits, so a qubit still unused
        // marks the first fine vertex of the coarse vertex on it.
        for (std::size_t v = 0; v < num_fine; ++v) {
            const int cp = position_[static_cast<std::size_t>(coarse_of[v])];
            if (used_[static_cast<std::size_t>(cp)]) continue;
            used_[static_cast<std::size_t>(cp)] = 1;
            fine_position_[v] = cp;
        }
        for (std::size_t v = 0; v < num_fine; ++v) {
            if (fine_position_[v] != -1) continue;
            const int anchor = position_[static_cast<std::size_t>(coarse_of[v])];
            int best = -1;
            for (int p = 0; p < num_physical; ++p) {
                if (used_[static_cast<std::size_t>(p)]) continue;
                if (best == -1 || dist_(anchor, p) < dist_(anchor, best)) best = p;
            }
            fine_position_[v] = best;
            used_[static_cast<std::size_t>(best)] = 1;
        }
        std::swap(position_, fine_position_);
    }

    /// Pairwise-exchange hill climbing on the weight-summed distance over
    /// `g`'s pairs: each sweep visits the vertices in a random order and
    /// moves each to the first qubit (ascending) where the move, a swap
    /// with its occupant or onto a free qubit, lowers it. Stops after a
    /// sweep without a move.
    void refine(const weighted_interactions& g, rng& random) {
        const int num_physical = coupling_.num_vertices();
        holder_.assign(static_cast<std::size_t>(num_physical), -1);
        for (int v = 0; v < g.num_vertices(); ++v) {
            holder_[static_cast<std::size_t>(position_[static_cast<std::size_t>(v)])] = v;
        }
        order_.resize(static_cast<std::size_t>(g.num_vertices()));
        for (int sweep = 0; sweep < sweeps_; ++sweep) {
            // The draws of random.permutation(n).
            std::iota(order_.begin(), order_.end(), 0);
            random.shuffle(order_);
            bool improved = false;
            for (const int v : order_) {
                const int pv = position_[static_cast<std::size_t>(v)];
                for (int p = 0; p < num_physical; ++p) {
                    if (p == pv) continue;
                    const int other = holder_[static_cast<std::size_t>(p)];
                    long delta = shift_cost(g, v, other, pv, p);
                    if (other != -1) delta += shift_cost(g, other, v, p, pv);
                    if (delta >= 0) continue;
                    position_[static_cast<std::size_t>(v)] = p;
                    if (other != -1) position_[static_cast<std::size_t>(other)] = pv;
                    holder_[static_cast<std::size_t>(p)] = v;
                    holder_[static_cast<std::size_t>(pv)] = other;
                    improved = true;
                    break;
                }
            }
            if (!improved) break;
        }
    }

    /// The exact change in the weighted length of `a`'s pairs when `a`
    /// moves from qubit `from` to `to`, leaving out its pair with `skip`
    /// (the vertex it swaps with, so their distance stays). Lookups start
    /// at the partner's qubit, so a lazy provider builds only their rows.
    [[nodiscard]] long shift_cost(const weighted_interactions& g, int a, int skip, int from,
                                  int to) const {
        long delta = 0;
        for (const auto& [u, w] : g.partners[static_cast<std::size_t>(a)]) {
            if (u == skip) continue;
            const int pu = position_[static_cast<std::size_t>(u)];
            delta += w * (dist_(pu, to) - dist_(pu, from));
        }
        return delta;
    }

    const graph& coupling_;
    const distance_provider& dist_;
    const int sweeps_;
    std::vector<weighted_interactions> levels_;  // levels_[0] is the circuit's graph
    std::vector<std::vector<int>> coarse_of_;    // level l's vertex -> level l + 1's
    std::vector<int> coarsest_;                  // greedy placement of levels_.back()
    std::vector<int> position_;                  // the trial's placement at its level
    std::vector<int> fine_position_;
    std::vector<int> holder_;                    // physical qubit -> vertex, or -1
    std::vector<int> order_;
    std::vector<char> used_;
};

}  // namespace

routed_circuit route_mlqls(const circuit& logical, const graph& coupling,
                           const distance_provider& dist, const mlqls_options& options,
                           obs::snapshot* stats) {
    // Uncoarsening needs a free physical qubit for every program qubit.
    if (logical.num_qubits() > coupling.num_vertices()) {
        throw std::invalid_argument("route_mlqls: more program than physical qubits");
    }
    routed_circuit best;
    std::size_t best_swaps = std::numeric_limits<std::size_t>::max();
    const int trials = std::max(1, options.placement_trials);
    v_cycle placement(logical, coupling, dist, options);
    // ML-QLS refines placement with router feedback; model that with one
    // forward/backward mapping-only round of SABRE's layout stage from
    // the multilevel placement, then route. The passes run with SABRE's
    // default knobs, each from a fresh stream of the trial's seed.
    const sabre_options routing;
    sabre_layout layout(logical, coupling, dist, routing);

    for (int trial = 0; trial < trials; ++trial) {
        rng random(options.seed + static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL);
        mapping initial =
            mapping::from_program_to_physical(placement.place(random), coupling.num_vertices());

        const std::uint64_t pass_seed = options.seed + static_cast<std::uint64_t>(trial);
        rng forward(pass_seed);
        rng backward(pass_seed);
        rng emitting(pass_seed);
        layout.refine(0, initial, forward, backward);
        const std::size_t swaps = layout.route(0, initial, emitting);
        if (swaps < best_swaps) {
            best_swaps = swaps;
            best.initial = std::move(initial);
            best.physical = layout.routed(0);
        }
    }
    layout.report(stats, static_cast<std::size_t>(trials), best_swaps);
    QUBIKOS_DCHECK(validate_routed(logical, best, coupling).valid);
    return best;
}

}  // namespace qubikos::router
