// Tests for the CDCL SAT solver: known instances, pigeonhole UNSAT,
// randomized agreement with brute-force enumeration, assumptions,
// conflict limits, model validity.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace qubikos::sat {
namespace {

/// A clause list kept apart from any solver, so a test can load it into
/// a fresh solver and also check it by brute-force enumeration.
struct formula {
    int num_vars = 0;
    std::vector<std::vector<lit>> clauses;

    void add_clause(std::vector<lit> lits) { clauses.push_back(std::move(lits)); }

    /// Creates variables 0..num_vars-1 in a fresh solver and adds every
    /// clause; false if an empty clause made the formula trivially unsat.
    bool load_into(solver& s) const {
        for (int v = 0; v < num_vars; ++v) s.new_var();
        bool ok = true;
        for (const auto& clause : clauses) ok = s.add_clause(clause) && ok;
        return ok;
    }

    [[nodiscard]] bool satisfied_by(const std::vector<bool>& assignment) const {
        for (const auto& clause : clauses) {
            bool sat = false;
            for (const lit l : clause) {
                sat = sat || assignment[static_cast<std::size_t>(l.variable())] != l.negated();
            }
            if (!sat) return false;
        }
        return true;
    }

    /// Exhaustive satisfiability check; only sensible for small formulas.
    [[nodiscard]] bool brute_force_satisfiable() const {
        std::vector<bool> assignment(static_cast<std::size_t>(num_vars));
        for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << num_vars); ++bits) {
            for (int v = 0; v < num_vars; ++v) {
                assignment[static_cast<std::size_t>(v)] = ((bits >> v) & 1) != 0;
            }
            if (satisfied_by(assignment)) return true;
        }
        return false;
    }
};

TEST(sat, trivial_cases) {
    solver s;
    EXPECT_EQ(s.solve(), status::sat);  // empty formula

    const var a = s.new_var();
    s.add_clause(pos(a));
    EXPECT_EQ(s.solve(), status::sat);
    EXPECT_TRUE(s.model_value(a));
}

TEST(sat, unit_contradiction) {
    solver s;
    const var a = s.new_var();
    s.add_clause(pos(a));
    EXPECT_FALSE(s.add_clause(neg(a)));
    EXPECT_EQ(s.solve(), status::unsat);
}

TEST(sat, simple_implication_chain) {
    solver s;
    std::vector<var> vars;
    for (int i = 0; i < 20; ++i) vars.push_back(s.new_var());
    for (int i = 0; i + 1 < 20; ++i) s.add_clause(neg(vars[i]), pos(vars[i + 1]));
    s.add_clause(pos(vars[0]));
    ASSERT_EQ(s.solve(), status::sat);
    for (const var v : vars) EXPECT_TRUE(s.model_value(v));
}

TEST(sat, tautology_and_duplicates_are_simplified) {
    solver s;
    const var a = s.new_var();
    const var b = s.new_var();
    EXPECT_TRUE(s.add_clause({pos(a), neg(a), pos(b)}));  // tautology: dropped
    EXPECT_TRUE(s.add_clause({pos(b), pos(b), pos(b)}));  // collapses to unit
    ASSERT_EQ(s.solve(), status::sat);
    EXPECT_TRUE(s.model_value(b));
}

/// Pigeonhole principle PHP(n+1, n): UNSAT, requires real conflict
/// analysis to finish in reasonable time for small n.
formula pigeonhole(int holes) {
    const int pigeons = holes + 1;
    formula f{pigeons * holes, {}};
    const auto v = [holes](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
        std::vector<lit> clause;
        for (int h = 0; h < holes; ++h) clause.push_back(pos(v(p, h)));
        f.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                f.add_clause({neg(v(p1, h)), neg(v(p2, h))});
            }
        }
    }
    return f;
}

TEST(sat, pigeonhole_unsat) {
    for (int holes = 2; holes <= 6; ++holes) {
        solver s;
        pigeonhole(holes).load_into(s);
        EXPECT_EQ(s.solve(), status::unsat) << "PHP(" << holes + 1 << "," << holes << ")";
    }
}

TEST(sat, conflict_limit_returns_unknown) {
    solver s;
    pigeonhole(8).load_into(s);
    s.set_conflict_limit(5);
    EXPECT_EQ(s.solve(), status::unknown);
}

TEST(sat, assumptions) {
    solver s;
    const var a = s.new_var();
    const var b = s.new_var();
    s.add_clause(neg(a), pos(b));  // a -> b
    EXPECT_EQ(s.solve({pos(a), neg(b)}), status::unsat);
    EXPECT_EQ(s.solve({pos(a)}), status::sat);
    EXPECT_TRUE(s.model_value(b));
    // The solver remains reusable after assumption solves.
    EXPECT_EQ(s.solve({neg(b)}), status::sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_EQ(s.solve(), status::sat);
}

TEST(sat, clauses_added_after_an_assumption_conflict_see_only_root_assignments) {
    // Under a, the assumption b is already false, so solve() answers
    // unsat before deciding b. The solver must be back at level 0: a
    // later add_clause that simplified against a = true would drop ¬a
    // from (¬a ∨ c), fix c and then find (¬c) empty, though
    // a = b = c = false satisfies all three clauses.
    solver s;
    const var a = s.new_var();
    const var b = s.new_var();
    const var c = s.new_var();
    s.add_clause(neg(a), neg(b));
    EXPECT_EQ(s.solve({pos(a), pos(b)}), status::unsat);
    EXPECT_TRUE(s.add_clause(neg(a), pos(c)));
    EXPECT_TRUE(s.add_clause(neg(c)));
    ASSERT_EQ(s.solve(), status::sat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_FALSE(s.model_value(c));
}

/// Randomized 3-SAT agreement with brute force across a seed sweep.
class sat_random : public ::testing::TestWithParam<int> {};

TEST_P(sat_random, agrees_with_brute_force) {
    rng random(static_cast<std::uint64_t>(GetParam()) * 1337);
    for (int trial = 0; trial < 40; ++trial) {
        const int num_vars = random.range(3, 12);
        const int num_clauses = random.range(2, 50);
        formula f{num_vars, {}};
        for (int i = 0; i < num_clauses; ++i) {
            std::vector<lit> clause;
            const int width = random.range(1, 3);
            for (int j = 0; j < width; ++j) {
                clause.push_back(lit::make(random.range(0, num_vars - 1), random.chance(0.5)));
            }
            f.add_clause(clause);
        }
        solver s;
        const bool not_trivially_unsat = f.load_into(s);
        const status result = not_trivially_unsat ? s.solve() : status::unsat;
        const bool expected = f.brute_force_satisfiable();
        ASSERT_EQ(result == status::sat, expected) << "trial " << trial;
        if (result == status::sat) {
            std::vector<bool> model(static_cast<std::size_t>(num_vars));
            for (int v = 0; v < num_vars; ++v) model[static_cast<std::size_t>(v)] = s.model_value(v);
            EXPECT_TRUE(f.satisfied_by(model)) << "model does not satisfy formula";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, sat_random, ::testing::Range(1, 11));

TEST(sat, larger_random_instances_complete) {
    // Medium random 3-SAT around the easy regions on both sides of the
    // threshold; checks that restarts/reduction machinery holds up.
    rng random(99);
    for (const double ratio : {2.0, 6.0}) {
        const int num_vars = 150;
        const int num_clauses = static_cast<int>(num_vars * ratio);
        solver s;
        std::vector<var> vars;
        for (int i = 0; i < num_vars; ++i) vars.push_back(s.new_var());
        for (int i = 0; i < num_clauses; ++i) {
            std::vector<lit> clause;
            for (int j = 0; j < 3; ++j) {
                clause.push_back(lit::make(vars[static_cast<std::size_t>(
                                               random.range(0, num_vars - 1))],
                                           random.chance(0.5)));
            }
            s.add_clause(clause);
        }
        const status result = s.solve();
        EXPECT_NE(result, status::unknown);
        if (ratio <= 3.0) {
            EXPECT_EQ(result, status::sat);
        }
    }
}

TEST(sat, stats_populate) {
    solver s;
    pigeonhole(5).load_into(s);
    EXPECT_EQ(s.solve(), status::unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
    EXPECT_GT(s.stats().decisions, 0u);
    EXPECT_GT(s.stats().propagations, 0u);
}

/// Random 3-SAT over `num_vars` variables at the given clause ratio.
formula random_3sat(rng& random, int num_vars, double ratio) {
    formula f{num_vars, {}};
    const int num_clauses = static_cast<int>(num_vars * ratio);
    for (int i = 0; i < num_clauses; ++i) {
        std::vector<lit> clause;
        for (int j = 0; j < 3; ++j) {
            clause.push_back(lit::make(random.range(0, num_vars - 1), random.chance(0.5)));
        }
        f.add_clause(clause);
    }
    return f;
}

/// The exact search statistics of one solve. The solver is
/// deterministic, so a kernel change that keeps every decision,
/// propagation and conflict keeps these numbers; a change that moves
/// any of them changed the search, not only its speed.
void expect_stats(const solver::statistics& got, const solver::statistics& want) {
    EXPECT_EQ(got.conflicts, want.conflicts);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.propagations, want.propagations);
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.learned_clauses, want.learned_clauses);
}

TEST(sat_search_pinned, pigeonhole_6_5) {
    solver s;
    pigeonhole(5).load_into(s);
    ASSERT_EQ(s.solve(), status::unsat);
    expect_stats(s.stats(), {.conflicts = 150, .decisions = 190, .propagations = 1792,
                             .restarts = 1, .learned_clauses = 147});
}

TEST(sat_search_pinned, random_3sat_at_the_threshold) {
    rng random(4260);
    const formula f = random_3sat(random, 150, 4.26);
    solver s;
    ASSERT_TRUE(f.load_into(s));
    EXPECT_EQ(s.solve(), status::unsat);
    expect_stats(s.stats(), {.conflicts = 2498, .decisions = 3009, .propagations = 78745,
                             .restarts = 14, .learned_clauses = 2490});
}

TEST(sat_search_pinned, solve_under_assumptions) {
    rng random(77);
    const formula f = random_3sat(random, 150, 4.1);
    solver s;
    ASSERT_TRUE(f.load_into(s));
    std::vector<lit> assumptions;
    for (int v = 0; v < 4; ++v) assumptions.push_back(lit::make(v, random.chance(0.5)));
    EXPECT_EQ(s.solve(assumptions), status::unsat);
    expect_stats(s.stats(), {.conflicts = 801, .decisions = 957, .propagations = 25640,
                             .restarts = 5, .learned_clauses = 801});
    // Learned clauses carry over into the next solve, as in the certify
    // walk.
    EXPECT_EQ(s.solve(), status::sat);
    expect_stats(s.stats(), {.conflicts = 1848, .decisions = 2230, .propagations = 59115,
                             .restarts = 11, .learned_clauses = 1848});
}

TEST(sat, hint_from_a_model_solves_without_conflicts) {
    // Near the 3-SAT threshold: find a satisfiable formula whose plain
    // solve needs conflicts, then re-solve it hinted with its own model.
    rng random(2024);
    for (int attempt = 0; attempt < 50; ++attempt) {
        const formula f = random_3sat(random, 80, 4.2);
        solver plain;
        if (!f.load_into(plain) || plain.solve() != status::sat ||
            plain.stats().conflicts == 0) {
            continue;
        }
        std::vector<bool> model(static_cast<std::size_t>(f.num_vars));
        for (int v = 0; v < f.num_vars; ++v) {
            model[static_cast<std::size_t>(v)] = plain.model_value(v);
        }

        solver hinted;
        ASSERT_TRUE(f.load_into(hinted));
        for (int v = 0; v < f.num_vars; ++v) {
            hinted.hint(lit::make(v, !model[static_cast<std::size_t>(v)]));
        }
        ASSERT_EQ(hinted.solve(), status::sat);
        EXPECT_EQ(hinted.stats().conflicts, 0u);
        for (int v = 0; v < f.num_vars; ++v) {
            EXPECT_EQ(hinted.model_value(v), model[static_cast<std::size_t>(v)]) << v;
        }
        return;
    }
    FAIL() << "no satisfiable formula that needs conflicts in 50 draws";
}

TEST(sat, hints_never_change_an_unsat_verdict) {
    rng random(17);
    for (int trial = 0; trial < 8; ++trial) {
        const formula f = pigeonhole(5);
        solver s;
        f.load_into(s);
        for (int v = 0; v < f.num_vars; ++v) {
            if (random.chance(0.7)) s.hint(lit::make(v, random.chance(0.5)));
        }
        EXPECT_EQ(s.solve(), status::unsat) << "trial " << trial;
    }
    solver s;
    EXPECT_THROW(s.hint(pos(0)), std::out_of_range);
}

TEST(sat, model_access_errors) {
    solver s;
    EXPECT_THROW((void)s.model_value(0), std::out_of_range);
    const var a = s.new_var();
    s.add_clause(pos(a));
    s.solve();
    EXPECT_THROW((void)s.model_value(5), std::out_of_range);
}

}  // namespace
}  // namespace qubikos::sat
