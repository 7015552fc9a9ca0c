// qubikos-lint: hot-path — every OLSQ encoding adds its cardinality clauses here.
#include "sat/encodings.hpp"

#include <stdexcept>

namespace qubikos::sat {

namespace {

void at_most_one_pairwise(solver& s, const std::vector<lit>& lits) {
    for (std::size_t i = 0; i < lits.size(); ++i) {
        for (std::size_t j = i + 1; j < lits.size(); ++j) {
            s.add_clause(~lits[i], ~lits[j]);
        }
    }
}

/// Sinz sequential AMO: aux s_i == "one of lits[0..i] is true". The n-1
/// aux variables are created in a row, so s_i is variable s_0 + i.
void at_most_one_sequential(solver& s, const std::vector<lit>& lits) {
    const std::size_t n = lits.size();
    const var first = s.new_var();
    for (std::size_t i = 1; i + 1 < n; ++i) s.new_var();
    const auto aux = [first](std::size_t i) { return first + static_cast<var>(i); };
    // lits[i] -> s_i ; s_{i-1} -> s_i ; lits[i] & s_{i-1} -> false
    s.add_clause(~lits[0], pos(aux(0)));
    for (std::size_t i = 1; i + 1 < n; ++i) {
        s.add_clause(~lits[i], pos(aux(i)));
        s.add_clause(neg(aux(i - 1)), pos(aux(i)));
        s.add_clause(~lits[i], neg(aux(i - 1)));
    }
    s.add_clause(~lits[n - 1], neg(aux(n - 2)));
}

}  // namespace

void at_most_one(solver& s, const std::vector<lit>& lits) {
    if (lits.size() <= 1) return;
    if (lits.size() <= 6) {
        at_most_one_pairwise(s, lits);
    } else {
        at_most_one_sequential(s, lits);
    }
}

void at_least_one(solver& s, const std::vector<lit>& lits) {
    if (lits.empty()) throw std::invalid_argument("at_least_one: empty literal set");
    s.add_clause(lits);
}

void exactly_one(solver& s, const std::vector<lit>& lits) {
    at_least_one(s, lits);
    at_most_one(s, lits);
}

}  // namespace qubikos::sat
