// Shared machinery for the heuristic QLS tools.
//
// All four routers (SABRE, t|ket>-style, QMAP-style, ML-QLS-style) share:
//   - dag_frontier: incremental front layer over the gate dependency DAG;
//   - emission_buffer: writes the physical circuit, interleaving the
//     single-qubit gates at their correct positions;
//   - greedy_positions: the greedy placement loop, the initial mapping of
//     the tket/QMAP-style flows and ML-QLS's coarsest placement;
//   - force_route and the stagnation escape that guarantee progress;
//   - swap_candidates: per-route candidate swaps and adjacency tests.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/mapping.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace qubikos::router {

class emission_buffer;
class swap_candidates;

/// Incremental front layer of a gate_dag.
class dag_frontier {
public:
    explicit dag_frontier(const gate_dag& dag);

    /// Re-initializes over `dag` (which may be the same one), reusing
    /// the internal buffers' capacity — per-trial arenas reset one
    /// frontier per pass instead of constructing a fresh one.
    void reset(const gate_dag& dag);

    [[nodiscard]] const std::vector<int>& front() const { return front_; }
    [[nodiscard]] bool done() const { return executed_ == dag_->num_nodes(); }
    [[nodiscard]] int executed_count() const { return executed_; }
    [[nodiscard]] bool executed(int node) const {
        return executed_flags_[static_cast<std::size_t>(node)] != 0;
    }

    /// Marks a front node executed and promotes newly ready successors.
    void execute(int node);

    /// Executes (and emits, unless `emit` is null) the front nodes whose
    /// operands are coupled under `current`, collecting each round before
    /// executing it, until a round finds none. Returns whether any ran.
    bool execute_adjacent(const mapping& current, const swap_candidates& coupled,
                          emission_buffer* emit);

    /// The front node whose operands are nearest under `current` (ties:
    /// earlier front position): the gate the stagnation escape routes.
    [[nodiscard]] int nearest_front_gate(const mapping& current,
                                         const distance_provider& dist) const;

    /// Fills `out` (cleared first) with up to `limit` upcoming nodes
    /// beyond the front (BFS over successors, deduplicated, in discovery
    /// order) — SABRE's extended set — using the caller's `seen`/`queue`
    /// scratch. The routers call this once per emitted swap, so the
    /// buffers' capacity persists across the routing loop. `seen` must
    /// come in all-zero (empty is fine: it is resized to the DAG) and is
    /// all-zero again on return; only the entries this call marked are
    /// cleared.
    void lookahead_set(int limit, std::vector<int>& out, std::vector<char>& seen,
                       std::vector<int>& queue) const;

private:
    const gate_dag* dag_;
    std::vector<int> remaining_preds_;
    std::vector<char> executed_flags_;
    std::vector<int> front_;
    std::vector<int> executable_;  // execute_adjacent's per-round buffer
    int executed_ = 0;
};

/// Emits the physical circuit: swaps on demand, two-qubit gates when the
/// router schedules them, and pending single-qubit gates just before the
/// first later gate on the same qubit.
class emission_buffer {
public:
    emission_buffer(const circuit& logical, const gate_dag& dag, int num_physical);

    /// Emits DAG node `node` (and any pending earlier single-qubit gates
    /// on its operands) under the current mapping.
    void execute_two_qubit(int node, const mapping& current);

    void emit_swap(int pa, int pb);

    /// Emits all trailing single-qubit gates; call once after routing.
    void finish(const mapping& current);

    /// Rewinds to the just-constructed state (no gates emitted, cursors
    /// at zero) while keeping the per-qubit index lists and all buffer
    /// capacity — the same logical circuit can be routed again with zero
    /// steady-state allocation. Per-trial arenas call this between
    /// trials.
    void reset();

    [[nodiscard]] circuit take() { return std::move(physical_); }
    /// Borrow the emitted circuit without consuming it (arenas copy the
    /// best trial's circuit out and then reset() for the next trial).
    [[nodiscard]] const circuit& physical_circuit() const { return physical_; }
    [[nodiscard]] std::size_t swaps_emitted() const { return swaps_; }

private:
    void drain_single_qubit(int program_qubit, std::size_t before_index, const mapping& current);

    const circuit* logical_;
    const gate_dag* dag_;
    circuit physical_;
    /// Per program qubit: indices of logical gates touching it, ascending.
    std::vector<std::vector<std::size_t>> per_qubit_;
    std::vector<std::size_t> cursor_;
    std::size_t swaps_ = 0;
};

/// Weighted interaction graph of program qubits (or of ML-QLS's merged
/// groups of them): per vertex, its partners ascending with each pair's
/// weight, and its weighted degree.
struct weighted_interactions {
    /// The graph of `pairs` on `num_vertices` vertices; a repeated pair
    /// weighs the sum of its weights.
    weighted_interactions(int num_vertices, std::vector<std::pair<edge, long>> pairs);
    /// `logical`'s first `gate_window` two-qubit gates (0 = all), each
    /// pair weighing its gate multiplicity.
    [[nodiscard]] static weighted_interactions of(const circuit& logical,
                                                  std::size_t gate_window = 0);
    [[nodiscard]] int num_vertices() const { return static_cast<int>(degree.size()); }

    std::vector<std::vector<std::pair<int, long>>> partners;  ///< (vertex, weight)
    std::vector<long> degree;
};

/// The one greedy placement loop: vertices in descending weighted-degree
/// order (stable), each on the free physical qubit minimizing the
/// weight-summed distance to its already-placed partners (ties: higher
/// physical degree, then lower index). Returns vertex -> physical qubit.
/// Throws std::invalid_argument when `g` has more vertices than `coupling`.
[[nodiscard]] std::vector<int> greedy_positions(const weighted_interactions& g,
                                                const graph& coupling,
                                                const distance_provider& dist);

/// Initial placement of the tket- and QMAP-style flows: greedy_positions
/// over the first `gate_window` two-qubit gates (0 = all; real placement
/// passes only look at a prefix of the circuit), every pair weighing 1,
/// so a qubit's degree counts its distinct partners.
[[nodiscard]] mapping greedy_placement(const circuit& logical, const graph& coupling,
                                       const distance_provider& dist,
                                       std::size_t gate_window = 0);

/// One step of a shortest-path walk from `from` toward a target whose
/// distance row is `to_target`: the first neighbour (in adjacency order)
/// strictly closer to it. Throws std::logic_error when there is none,
/// which happens only when the target is unreachable.
[[nodiscard]] int shortest_path_step(const graph& coupling, const std::int32_t* to_target,
                                     int from);

/// Progress fallback: swaps one endpoint of `node`'s gate along a
/// shortest path until the gate is executable, emitting the swaps into
/// `out` (a null `out` only applies them to `current`). Returns the
/// swaps applied; any single gate becomes executable in <= diameter.
std::size_t force_route(int node, const gate_dag& dag, const graph& coupling,
                        const distance_provider& dist, mapping& current, emission_buffer* out);

/// The stagnation escape of SABRE and t|ket> (LightSABRE's release
/// valve): after more than 3 * diameter + 20 swaps without executing a
/// gate, force_route the frontier's nearest_front_gate.
[[nodiscard]] int stagnation_threshold(const distance_provider& dist);

/// `c` with its gate order reversed: the circuit of the backward pass in
/// forward/backward layout refinement.
[[nodiscard]] circuit reversed(const circuit& c);

/// Candidate swaps and adjacency tests over one coupling graph, built
/// once per route. Edges are ranked by (a, b) and marked in a rank
/// bitset, so reading the marks out in rank order yields the incident
/// edges sorted and deduplicated with no per-decision sort. The routers
/// break score ties by candidate position, so this order is part of
/// their output.
class swap_candidates {
public:
    explicit swap_candidates(const graph& coupling);

    /// Marks every coupling edge incident to physical qubit `p`.
    void add(int p);

    /// Fills `out` (cleared first) with the marked edges in ascending
    /// (a, b) order and unmarks them.
    void take(std::vector<edge>& out);

    /// Whether (u, v) is a coupling edge (false for u == v): a scan of
    /// u's incident edges, reading no distance row.
    [[nodiscard]] bool adjacent(int u, int v) const;

private:
    std::vector<edge> edges_;  // ascending (a, b); index = rank
    /// CSR over vertices: p's incident edges are entries
    /// [offsets_[p], offsets_[p + 1]) of the two arrays below.
    std::vector<int> offsets_;
    std::vector<int> incident_rank_;
    std::vector<int> incident_other_;  // the edge's other endpoint
    std::vector<std::uint64_t> marked_;
    std::size_t lo_word_ = 0;  // marked_ words outside [lo_word_, hi_word_) are zero
    std::size_t hi_word_ = 0;
};

}  // namespace qubikos::router
