// Cardinality encodings on top of the CDCL solver.
//
// The OLSQ encoding needs exactly-one / at-most-one constraints over
// mapping rows, gate time assignments and transition swaps. Small groups
// use the pairwise encoding; larger groups the sequential (Sinz) encoding,
// which stays linear in clauses and auxiliary variables.
#pragma once

#include <vector>

#include "sat/solver.hpp"

namespace qubikos::sat {

/// At most one of `lits` is true. Chooses pairwise vs sequential
/// automatically (pairwise for <= 6 literals).
void at_most_one(solver& s, const std::vector<lit>& lits);

/// Exactly one of `lits` is true; `lits` must be non-empty.
void exactly_one(solver& s, const std::vector<lit>& lits);

/// At least one (a plain clause).
void at_least_one(solver& s, const std::vector<lit>& lits);

}  // namespace qubikos::sat
