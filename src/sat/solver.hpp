// Conflict-driven clause-learning SAT solver.
//
// This is the decision engine underneath the exact layout synthesizer
// (src/exact/olsq.*), standing in for the PySAT/Z3 backends the paper's
// optimality study uses. Feature set:
//   - two-watched-literal propagation; a 2-literal clause is tagged in
//     its watchers and settled from the blocker without reading the
//     clause;
//   - first-UIP clause learning with recursive minimization;
//   - EVSIDS variable activities on an indexed heap, phase saving, Luby
//     restarts, and LBD-based learned-clause reduction;
//   - clause intake that simplifies in a reused buffer, so adding a
//     clause allocates nothing of its own.
// The search is deterministic: the same clauses in the same order give
// the same decisions, propagations and conflicts, which tests pin
// (docs/performance.md, "An identical-search SAT kernel").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/literal.hpp"

namespace qubikos::sat {

enum class status { sat, unsat, unknown };

class solver {
public:
    solver() = default;

    /// Creates a fresh variable and returns it; variables are numbered
    /// 0, 1, 2, ... in creation order.
    var new_var();
    [[nodiscard]] int num_vars() const { return static_cast<int>(level_.size()); }
    [[nodiscard]] std::size_t num_clauses() const { return num_problem_clauses_; }

    /// Adds a clause; returns false if the formula is already trivially
    /// unsatisfiable (empty clause after simplification).
    bool add_clause(std::span<const lit> lits);
    bool add_clause(std::initializer_list<lit> lits) {
        return add_clause(std::span<const lit>(lits.begin(), lits.size()));
    }
    bool add_clause(lit a) {
        const lit lits[] = {a};
        return add_clause(std::span<const lit>(lits));
    }
    bool add_clause(lit a, lit b) {
        const lit lits[] = {a, b};
        return add_clause(std::span<const lit>(lits));
    }
    bool add_clause(lit a, lit b, lit c) {
        const lit lits[] = {a, b, c};
        return add_clause(std::span<const lit>(lits));
    }

    /// Suggests `l` to the next solve(): its variable is decided before
    /// every unhinted variable and first tried with l's polarity. Only the
    /// search order changes, never a sat/unsat verdict.
    void hint(lit l);

    /// Solves the current formula. `assumptions` are decided first; an
    /// UNSAT answer under assumptions means no model extends them.
    status solve(const std::vector<lit>& assumptions = {});

    /// Model access, valid after solve() returned sat.
    [[nodiscard]] bool model_value(var v) const;
    [[nodiscard]] bool model_value(lit l) const {
        return model_value(l.variable()) != l.negated();
    }

    /// Abort knob: stop and return unknown after this many conflicts
    /// (0 = unlimited).
    void set_conflict_limit(std::uint64_t limit) { conflict_limit_ = limit; }

    struct statistics {
        std::uint64_t conflicts = 0;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t restarts = 0;
        std::uint64_t learned_clauses = 0;
        std::uint64_t deleted_clauses = 0;
    };
    [[nodiscard]] const statistics& stats() const { return stats_; }

private:
    using cref = std::uint32_t;
    static constexpr cref kNoReason = 0xffffffffu;

    // --- clause arena ----------------------------------------------------
    // Layout per clause: [size | learned flag in bit 31] [lbd] [activity
    // placeholder unused] lits... ; refs are offsets into arena_.
    struct clause_view {
        std::uint32_t* header;
        [[nodiscard]] std::uint32_t size() const { return header[0] & 0x7fffffffu; }
        [[nodiscard]] bool learned() const { return (header[0] >> 31) != 0; }
        [[nodiscard]] std::uint32_t lbd() const { return header[1]; }
        [[nodiscard]] lit get(std::uint32_t i) const {
            return from_code(static_cast<std::int32_t>(header[2 + i]));
        }
        void set(std::uint32_t i, lit l) { header[2 + i] = static_cast<std::uint32_t>(l.code); }
    };

    clause_view view(cref ref) { return clause_view{arena_.data() + ref}; }
    cref alloc_clause(std::span<const lit> lits, bool learned, std::uint32_t lbd);
    /// The reason of implied variable `v` with v's literal in slot 0, as
    /// conflict analysis reads it. Propagation leaves a binary clause's
    /// literals where they are, so a binary reason is swapped into that
    /// order here.
    clause_view reason_clause(var v);

    /// Refs stay below kBinaryTag; a watcher's ref carries the tag when
    /// its clause has 2 literals, whose other literal is then always the
    /// blocker.
    static constexpr cref kBinaryTag = 0x80000000u;
    struct watcher {
        cref ref;
        lit blocker;
    };

    // --- core loop --------------------------------------------------------
    void attach(cref ref);
    cref propagate();
    void analyze(cref conflict, std::vector<lit>& learnt, int& backtrack_level,
                 std::uint32_t& lbd);
    bool literal_redundant(lit l, std::uint32_t abstract_levels);
    void backtrack(int level);
    void enqueue(lit l, cref reason);
    lit decide();
    void reduce_db();
    void restart();

    [[nodiscard]] lbool value(lit l) const { return values_[l.index()]; }
    [[nodiscard]] int level(var v) const { return level_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] int current_level() const { return static_cast<int>(trail_lim_.size()); }

    // --- contract scans (QUBIKOS_DCHECK material; see util/check.hpp) ----
    /// Two-watched-literal invariant: every watcher entry's clause holds
    /// the watched literal in slot 0 or 1, a watcher is tagged binary
    /// exactly when its clause has 2 literals (and its blocker is then
    /// the other one), and every attached clause is found on exactly the
    /// two lists of its first two literals.
    [[nodiscard]] bool watch_invariants_ok();
    /// Trail invariant: propagation queue drained, every trail literal
    /// assigned true at a level consistent with the decision markers.
    [[nodiscard]] bool trail_invariants_ok() const;

    // --- activity heap ----------------------------------------------------
    void bump_var(var v);
    void decay_var_activity() { var_inc_ /= kVarDecay; }
    void heap_insert(var v);
    void heap_percolate_up(int i);
    void heap_percolate_down(int i);
    var heap_pop();
    [[nodiscard]] bool heap_contains(var v) const {
        return heap_index_[static_cast<std::size_t>(v)] != -1;
    }

    static constexpr double kVarDecay = 0.95;
    static constexpr double kRescaleThreshold = 1e100;

    // state
    std::vector<std::uint32_t> arena_;
    std::vector<cref> problem_clauses_;
    std::vector<cref> learned_;
    std::size_t num_problem_clauses_ = 0;

    std::vector<std::vector<watcher>> watches_;  // indexed by lit.index()
    std::vector<lbool> values_;                  // indexed by lit.index()
    std::vector<char> phase_;                    // saved polarity
    std::vector<int> level_;
    std::vector<cref> reason_;
    std::vector<lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    std::vector<var> heap_;
    std::vector<int> heap_index_;

    std::vector<bool> model_;
    bool ok_ = true;  // false once an empty clause was derived

    // scratch buffers for add_clause() and analyze()
    std::vector<lit> intake_;
    std::vector<char> seen_;
    std::vector<lit> analyze_stack_;
    std::vector<lit> analyze_clear_;
    std::vector<std::uint64_t> level_stamp_;  // LBD count: last stamp per level
    std::uint64_t lbd_stamp_ = 0;

    std::uint64_t conflict_limit_ = 0;
    statistics stats_;
};

}  // namespace qubikos::sat
