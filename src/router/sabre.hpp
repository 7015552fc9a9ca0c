// SABRE / LightSABRE heuristic layout synthesis.
//
// Li, Ding, Xie (ASPLOS'19) routing with the Qiskit LightSABRE cost
// function the paper's case study dissects (Sec. IV-C):
//
//   score(swap) = max(decay[p1], decay[p2]) *
//                 ( (1/|F|) * sum_F D[pi(q0)][pi(q1)]
//                 + (W/|E|) * sum_E D[pi(q0)][pi(q1)] )
//
// with extended set size 20, weight W = 0.5, decay increment 0.001 and
// decay reset every 5 swaps — Qiskit 1.2 defaults. "LightSABRE" in the
// paper means this algorithm run with many random trials (1000 in their
// setup), keeping the best result; `trials` controls that here.
//
// Extras beyond stock SABRE:
//   - LightSABRE's release valve, the stagnation escape shared with
//     t|ket> (router/common.hpp), guaranteeing progress;
//   - `lookahead_decay` < 1 applies the geometric decay to extended-set
//     terms that Sec. IV-C proposes as a fix, enabling the ablation bench.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/mapping.hpp"
#include "circuit/routed.hpp"
#include "graph/distance.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace qubikos::router {

struct sabre_options {
    /// Random restarts; the best (fewest-swap) result is kept.
    int trials = 1;
    /// Worker threads for the trial loop: 0 = auto (QUBIKOS_THREADS env
    /// override, else hardware_concurrency), 1 = serial. Trials use
    /// independent salted RNG streams, so the result is bit-identical
    /// for every thread count (ties go to the lowest trial index).
    /// Defaults to serial so cross-tool runtime comparisons stay fair
    /// and callers opt in to parallelism explicitly.
    int threads = 1;
    int extended_set_size = 20;
    double extended_set_weight = 0.5;
    double decay_increment = 0.001;
    int decay_reset_interval = 5;
    /// Geometric decay over extended-set positions; 1.0 reproduces Qiskit
    /// (uniform weights), < 1.0 is the Sec. IV-C proposed fix.
    double lookahead_decay = 1.0;
    std::uint64_t seed = 1;
};

/// Score breakdown for one candidate swap at a decision point (consumed by
/// the Sec. IV-C case study).
struct swap_score {
    edge candidate;
    double basic = 0.0;
    double lookahead = 0.0;
    double decay_factor = 1.0;
    [[nodiscard]] double total() const { return decay_factor * (basic + lookahead); }
};

/// Observer invoked at every swap decision of the *final* routing pass.
struct sabre_decision {
    std::vector<int> front_nodes;
    std::vector<int> extended_nodes;
    std::vector<swap_score> scores;
    edge chosen;
    std::size_t swaps_so_far = 0;
};
using sabre_observer = std::function<void(const sabre_decision&)>;

/// Routes `logical` on `coupling`; `dist` is a distance provider over
/// `coupling` (dense or lazy — the result is identical either way).
///
/// With `initial == nullptr` this is the full SABRE flow: per trial, a
/// random initial mapping refined by sabre_layout, then routing; the
/// best trial wins. With a caller-fixed `initial` it routes once from
/// that mapping (no trials, no refinement) — the standalone-router
/// evaluation mode of Sec. IV-C: feed the known-optimal initial mapping
/// and measure pure routing quality. `observer` (optional) sees every
/// swap decision; it is honoured only in the fixed-initial mode.
///
/// Every route publishes its counters to obs and, when `stats` is
/// non-null, stores them in `*stats`:
///   sabre.routes          1
///   sabre.trials_run      trials run to completion (1 with `initial`)
///   sabre.pass_decisions  swap decisions over every pass of every trial
///   sabre.force_routes    stagnation-escape force-routes over every pass
///                         of every trial
///   sabre.best_swaps      swaps of the returned routing
///   sabre.arena_slots     concurrent trial slots, min(threads, trials):
///                         peak memory holds this many routed circuits
/// All but arena_slots are identical for any thread count.
[[nodiscard]] routed_circuit route_sabre(const circuit& logical, const graph& coupling,
                                         const distance_provider& dist,
                                         const sabre_options& options = {},
                                         const mapping* initial = nullptr,
                                         obs::snapshot* stats = nullptr,
                                         const sabre_observer& observer = {});

/// SABRE's layout stage (LightSABRE, Zou et al. 2024, arXiv:2409.08368)
/// for one route: the forward and reverse DAGs, built once and read by
/// every pass, plus one workspace per concurrent slot. route_sabre and
/// route_mlqls run every pass here. Each pass draws from the stream the
/// caller hands in. Calls on distinct slots may run concurrently; the
/// referenced arguments must outlive the stage.
class sabre_layout {
public:
    struct workspace;  // one slot's buffers and pass counters

    sabre_layout(const circuit& logical, const graph& coupling, const distance_provider& dist,
                 const sabre_options& options, std::size_t slots = 1);
    ~sabre_layout();

    /// Refines `current` in place: a forward, then a backward,
    /// mapping-only pass (SABRE's reverse-traversal trick).
    void refine(std::size_t slot, mapping& current, rng& forward, rng& backward);

    /// The emitting pass from `initial`; returns its swap count. The
    /// circuit stays in the slot (routed()) until its next route.
    /// `observer` (optional) sees every swap decision.
    std::size_t route(std::size_t slot, const mapping& initial, rng& random,
                      const sabre_observer& observer = {});
    [[nodiscard]] const circuit& routed(std::size_t slot) const;

    /// Publishes the route's counters (listed at route_sabre), summed
    /// over every pass of every slot, with arena_slots = the slot count.
    void report(obs::snapshot* stats, std::size_t trials_run, std::size_t best_swaps) const;

private:
    const graph& coupling_;
    const distance_provider& dist_;
    const sabre_options& options_;
    gate_dag dag_;
    gate_dag reverse_dag_;
    std::vector<workspace> slots_;
};

}  // namespace qubikos::router
