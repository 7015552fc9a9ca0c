// Cardinality-encoding correctness: for every size in range, the
// encoding must accept exactly the assignments with the right popcount.
// Checked by enumerating all assignments with assumption solving.
#include <gtest/gtest.h>

#include "sat/encodings.hpp"
#include "sat/solver.hpp"

namespace qubikos::sat {
namespace {

/// Builds n fresh variables in a fresh solver.
std::vector<var> make_vars(solver& s, int n) {
    std::vector<var> out;
    for (int i = 0; i < n; ++i) out.push_back(s.new_var());
    return out;
}

std::vector<lit> positive(const std::vector<var>& vars) {
    std::vector<lit> out;
    for (const var v : vars) out.push_back(pos(v));
    return out;
}

/// Checks, for every full assignment over `vars`, whether the solver
/// accepts it under assumptions — compared against `predicate(popcount)`.
template <typename Predicate>
void check_exactly(solver& s, const std::vector<var>& vars, Predicate predicate) {
    const int n = static_cast<int>(vars.size());
    for (unsigned bits = 0; bits < (1u << n); ++bits) {
        std::vector<lit> assumptions;
        int popcount = 0;
        for (int i = 0; i < n; ++i) {
            const bool on = ((bits >> i) & 1) != 0;
            popcount += on ? 1 : 0;
            assumptions.push_back(lit::make(vars[static_cast<std::size_t>(i)], !on));
        }
        const bool accepted = s.solve(assumptions) == status::sat;
        EXPECT_EQ(accepted, predicate(popcount))
            << "bits=" << bits << " popcount=" << popcount;
    }
}

class amo_sizes : public ::testing::TestWithParam<int> {};

TEST_P(amo_sizes, at_most_one) {
    const int n = GetParam();
    solver s;
    const auto vars = make_vars(s, n);
    at_most_one(s, positive(vars));
    check_exactly(s, vars, [](int count) { return count <= 1; });
}

TEST_P(amo_sizes, exactly_one) {
    const int n = GetParam();
    solver s;
    const auto vars = make_vars(s, n);
    exactly_one(s, positive(vars));
    check_exactly(s, vars, [](int count) { return count == 1; });
}

// Covers both the pairwise (<=6) and sequential (>6) encodings.
INSTANTIATE_TEST_SUITE_P(sizes, amo_sizes, ::testing::Values(1, 2, 3, 5, 6, 7, 9, 12));

TEST(encodings, argument_validation) {
    solver s;
    const auto vars = make_vars(s, 3);
    EXPECT_THROW(at_least_one(s, {}), std::invalid_argument);
    at_most_one(s, {});                 // no-op
    at_most_one(s, {pos(vars[0])});     // no-op
    EXPECT_EQ(s.solve(), status::sat);
}

}  // namespace
}  // namespace qubikos::sat
