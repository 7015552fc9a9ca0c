// Exact quantum layout synthesis via SAT (OLSQ2-style transition model).
//
// Reproduces the role OLSQ2 [Lin et al., DAC'23] plays in the paper's
// Sec. IV-A optimality study: decide whether a circuit can be executed
// on a coupling graph with at most k SWAP gates. The encoding is the
// transition-based model: k+1 mapping "blocks" connected by single-SWAP
// transitions, with every two-qubit gate assigned to one block where its
// qubits must be adjacent, respecting the gate dependency DAG.
//
// feasible(k) is monotone in k (unused trailing swaps are legal; with no
// edge there are none), so the smallest satisfiable k is the provably
// optimal SWAP count. certify encodes once at a declared k, solves SAT
// at k and walks down on the same solver until the first UNSAT: the
// paper's check, SAT at k and UNSAT at k-1, is the walk stopping after
// one step. Every decoded model is checked with validate_routed; a
// failure means unknown.
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

#include "circuit/circuit.hpp"
#include "circuit/routed.hpp"
#include "graph/graph.hpp"

namespace qubikos::exact {

enum class feasibility { feasible, infeasible, unknown };

/// Verdicts on a declared swap count k: at most k swaps and at most k-1
/// (vacuously infeasible at k == 0), and where the walk down from k
/// stopped.
struct certificate {
    int k = 0;
    feasibility at_k = feasibility::unknown;
    feasibility below = feasibility::unknown;
    /// The fewest swaps a validated model of the walk used (-1 when at_k
    /// is not feasible), and whether one swap fewer was proven infeasible
    /// (vacuously at 0). When `proven`, `swaps` is the optimum.
    struct {
        int swaps = -1;
        bool proven = false;
    } fewest;
    routed_circuit witness;  ///< the validated model at fewest.swaps

    [[nodiscard]] bool confirmed() const {
        return at_k == feasibility::feasible && below == feasibility::infeasible;
    }
    /// A verdict stayed unknown (a budget ran out, or a model failed
    /// validation).
    [[nodiscard]] bool aborted() const {
        return at_k == feasibility::unknown || below == feasibility::unknown;
    }
    /// k when confirmed, the walk's fewest count when k-1 swaps suffice,
    /// -1 otherwise.
    [[nodiscard]] int solver_swaps() const {
        return confirmed() || below == feasibility::feasible ? fewest.swaps : -1;
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
/// `hint` as in check_swap_count), then, while the last solve was
/// feasible and j > 0, j-1 on the same solver under stacked selectors
/// that forbid every gate in blocks j..k. `conflict_limit` budgets each
/// solve of the walk.
[[nodiscard]] certificate certify(const circuit& c, const graph& coupling, int k,
                                  std::uint64_t conflict_limit = 0,
                                  const routed_circuit* hint = nullptr);

}  // namespace qubikos::exact
