// Exact quantum layout synthesis via SAT (OLSQ2-style transition model).
//
// Reproduces the role OLSQ2 [Lin et al., DAC'23] plays in the paper's
// Sec. IV-A optimality study: decide, for increasing k, whether a circuit
// can be executed on a coupling graph with at most k SWAP gates. The
// encoding is the transition-based model: k+1 mapping "blocks" connected
// by single-SWAP transitions, with every two-qubit gate assigned to one
// block where its qubits must be adjacent, respecting the gate dependency
// DAG.
//
// feasible(k) is monotone in k (unused trailing swaps are legal; with no
// edge there are none), so the smallest satisfiable k is the provably
// optimal SWAP count. certify confirms a declared k the paper's way, SAT
// at k and UNSAT at k-1, on one encoding. It and solve_optimal check
// every decoded model with validate_routed; a failure means unknown.
//
// A caller that already holds a routing (a generator's planted answer)
// may pass it as a hint: the solver decides the hint's literals first,
// in the hint's polarity, so a valid k-swap hint is found with no
// conflicts. The verdict still comes from the full CDCL search, so under
// an unlimited conflict budget a hint changes the speed, never the
// answer; under a nonzero budget a valid hint can only turn unknown into
// feasible.
//
// Each encoding also breaks the coupling graph's automorphism symmetry
// on the block-0 mapping with a stabilizer chain: the busiest program
// qubit may start only on one representative per orbit, the next one
// only on one per orbit of the stabilizer of that position, and so on
// while the stabilizer stays nontrivial (up to a fixed number of chain
// nodes). An automorphism maps models to models, so no verdict changes;
// on the hint's path the hint's own positions are the representatives,
// so a hint stays a model. The exact.symmetry_clauses counter counts the
// clauses added. docs/symmetry.md has the argument.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/graph.hpp"

namespace qubikos::exact {

enum class feasibility { feasible, infeasible, unknown };

struct olsq_options {
    /// Largest swap count to try before giving up.
    int max_swaps = 16;
    /// Per-SAT-call conflict budget (0 = unlimited).
    std::uint64_t conflict_limit = 0;
};

struct olsq_result {
    /// True when an optimal count was established (SAT at k, UNSAT at k-1
    /// or k == 0).
    bool solved = false;
    /// True when a conflict/size budget aborted the search, or a model
    /// failed validation.
    bool aborted = false;
    int optimal_swaps = -1;
    /// Witness synthesis extracted from the SAT model.
    routed_circuit witness;
    /// Conflicts spent per attempted k (index k).
    std::vector<std::uint64_t> conflicts_per_k;
};

/// Verdicts on a declared swap count k: at most k swaps and at most k-1
/// (vacuously infeasible at k == 0).
struct certificate {
    int k = 0;
    feasibility at_k = feasibility::unknown;
    feasibility below = feasibility::unknown;
    routed_circuit witness;  ///< decoded at k; checked when at_k is feasible

    [[nodiscard]] bool confirmed() const {
        return at_k == feasibility::feasible && below == feasibility::infeasible;
    }
    /// A verdict stayed unknown (a budget ran out, or a model failed
    /// validation).
    [[nodiscard]] bool aborted() const {
        return at_k == feasibility::unknown || below == feasibility::unknown;
    }
    /// k when confirmed, k-1 when k-1 swaps suffice, -1 otherwise.
    [[nodiscard]] int solver_swaps() const {
        return confirmed() ? k : below == feasibility::feasible ? k - 1 : -1;
    }
};

/// Single decision: is `c` routable on `coupling` with at most k swaps?
/// `hint` (optional) is a routing of `c` to search from; whatever of it
/// does not fit the k-swap encoding (swaps past k, a foreign circuit's
/// gates) is skipped.
[[nodiscard]] feasibility check_swap_count(const circuit& c, const graph& coupling, int k,
                                           std::uint64_t conflict_limit = 0,
                                           const routed_circuit* hint = nullptr);

/// Settles a declared count k on one encoding at k: SAT at k (with
/// `hint` as in check_swap_count), then k-1 on the same solver under a
/// selector that forbids every gate in block k. `conflict_limit`
/// budgets each solve.
[[nodiscard]] certificate certify(const circuit& c, const graph& coupling, int k,
                                  std::uint64_t conflict_limit = 0,
                                  const routed_circuit* hint = nullptr);

/// Minimal swap count by iterating check_swap_count upward from 0.
/// `hint` is passed to every k at or above its swap count; below that it
/// cannot be a model, so those (UNSAT) proofs run unhinted.
[[nodiscard]] olsq_result solve_optimal(const circuit& c, const graph& coupling,
                                        const olsq_options& options = {},
                                        const routed_circuit* hint = nullptr);

}  // namespace qubikos::exact
