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
// feasible(k) is monotone in k (unused trailing swaps are always legal),
// so the smallest satisfiable k is the provably optimal SWAP count; the
// result also reports that k-1 was proven UNSAT.
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
    /// Start the search at this k (use when a lower bound is known).
    int min_swaps = 0;
};

struct olsq_result {
    /// True when an optimal count was established (SAT at k, UNSAT at k-1
    /// or k == min_swaps).
    bool solved = false;
    /// True when a conflict/size budget aborted the search.
    bool aborted = false;
    int optimal_swaps = -1;
    /// Witness synthesis extracted from the SAT model.
    routed_circuit witness;
    /// Conflicts spent per attempted k (index 0 = min_swaps).
    std::vector<std::uint64_t> conflicts_per_k;
};

/// Single decision: is `c` routable on `coupling` with at most k swaps?
/// `witness` (optional) receives a routed circuit when feasible. `hint`
/// (optional) is a routing of `c` to search from; whatever of it does
/// not fit the k-swap encoding (swaps past k, a foreign circuit's gates)
/// is skipped.
[[nodiscard]] feasibility check_swap_count(const circuit& c, const graph& coupling, int k,
                                           std::uint64_t conflict_limit = 0,
                                           routed_circuit* witness = nullptr,
                                           const routed_circuit* hint = nullptr);

/// Minimal swap count by iterating check_swap_count upward from
/// options.min_swaps. `hint` is passed to every k at or above its swap
/// count; below that it cannot be a model, so those (UNSAT) proofs run
/// unhinted.
[[nodiscard]] olsq_result solve_optimal(const circuit& c, const graph& coupling,
                                        const olsq_options& options = {},
                                        const routed_circuit* hint = nullptr);

}  // namespace qubikos::exact
