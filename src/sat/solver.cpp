// qubikos-lint: hot-path — propagate and analyze run once per search step of every certify.
#include "sat/solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/restart.hpp"

namespace qubikos::sat {

namespace {

constexpr std::uint64_t kRestartBase = 100;

/// Publishes the statistics deltas of one solve() call on every exit
/// path (sat/unsat/unknown/throw) — a scope guard, so the hot CDCL loop
/// keeps incrementing only the plain stats_ fields.
struct obs_stats_guard {
    const solver::statistics& live;
    solver::statistics base;

    explicit obs_stats_guard(const solver::statistics& s) : live(s), base(s) {}

    ~obs_stats_guard() {
        if (!obs::enabled()) return;
        static const obs::counter_set names{"sat.conflicts", "sat.decisions",
                                            "sat.learned_clauses", "sat.propagations",
                                            "sat.restarts", "sat.solves"};
        const std::uint64_t values[] = {
            live.conflicts - base.conflicts, live.decisions - base.decisions,
            live.learned_clauses - base.learned_clauses, live.propagations - base.propagations,
            live.restarts - base.restarts, 1};
        names.publish(values, nullptr);
    }
};

}  // namespace

var solver::new_var() {
    const var v = static_cast<var>(level_.size());
    values_.push_back(lbool::undef);
    values_.push_back(lbool::undef);
    phase_.push_back(0);
    level_.push_back(0);
    reason_.push_back(kNoReason);
    activity_.push_back(0.0);
    heap_index_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

solver::cref solver::alloc_clause(std::span<const lit> lits, bool learned, std::uint32_t lbd) {
    const std::size_t ref = arena_.size();
    if (ref + 2 + lits.size() > kBinaryTag) {
        throw std::length_error("sat::solver: clause arena full");
    }
    arena_.push_back(static_cast<std::uint32_t>(lits.size()) | (learned ? 0x80000000u : 0u));
    arena_.push_back(lbd);
    for (const lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.code));
    return static_cast<cref>(ref);
}

void solver::attach(cref ref) {
    clause_view c = view(ref);
    QUBIKOS_ASSERT(c.size() >= 2);
    const cref tagged = c.size() == 2 ? ref | kBinaryTag : ref;
    watches_[c.get(0).index()].push_back({tagged, c.get(1)});
    watches_[c.get(1).index()].push_back({tagged, c.get(0)});
}

bool solver::add_clause(std::span<const lit> lits) {
    if (!ok_) return false;
    QUBIKOS_ASSERT(current_level() == 0);
    // Simplify in the intake buffer: sort, dedupe, drop false literals,
    // detect tautologies and satisfied clauses. The kept literals are a
    // prefix of the buffer.
    intake_.assign(lits.begin(), lits.end());
    std::sort(intake_.begin(), intake_.end(), [](lit a, lit b) { return a.code < b.code; });
    std::size_t kept = 0;
    for (const lit l : intake_) {
        if (l.variable() < 0 || l.variable() >= num_vars()) {
            throw std::out_of_range("sat::add_clause: unknown variable");
        }
        if (kept > 0 && l == intake_[kept - 1]) continue;
        if (kept > 0 && l == ~intake_[kept - 1]) return true;  // tautology
        const lbool v = value(l);
        if (v == lbool::true_) return true;  // satisfied at level 0
        if (v == lbool::false_) continue;    // drop falsified literal
        intake_[kept++] = l;
    }
    const std::span<const lit> out(intake_.data(), kept);
    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], kNoReason);
        if (propagate() != kNoReason) {
            ok_ = false;
            return false;
        }
        return true;
    }
    const cref ref = alloc_clause(out, /*learned=*/false, /*lbd=*/0);
    problem_clauses_.push_back(ref);
    ++num_problem_clauses_;
    attach(ref);
    return true;
}

void solver::enqueue(lit l, cref reason) {
    QUBIKOS_CHECK_MSG(value(l) == lbool::undef,
                      "enqueue of already-assigned literal " << l.str() << " at level "
                                                             << current_level());
    values_[l.index()] = lbool::true_;
    values_[(~l).index()] = lbool::false_;
    level_[static_cast<std::size_t>(l.variable())] = current_level();
    reason_[static_cast<std::size_t>(l.variable())] = reason;
    trail_.push_back(l);
}

solver::cref solver::propagate() {
    while (qhead_ < trail_.size()) {
        const lit p = trail_[qhead_++];
        ++stats_.propagations;
        const lit false_lit = ~p;
        auto& watch_list = watches_[false_lit.index()];
        // Replacement watches go to other lists, so these stay valid.
        watcher* const end = watch_list.data() + watch_list.size();
        watcher* keep = watch_list.data();
        for (watcher* w = watch_list.data(); w != end; ++w) {
            const lbool blocker_value = value(w->blocker);
            if (blocker_value == lbool::true_) {
                *keep++ = *w;
                continue;
            }
            if ((w->ref & kBinaryTag) != 0) {
                // Binary: the blocker is the other literal.
                const lit other = w->blocker;
                const cref ref = w->ref & ~kBinaryTag;
                *keep++ = *w;
                if (blocker_value == lbool::false_) {
                    // Analysis bumps a conflict's variables from slot 0,
                    // and bump order breaks activity ties, so store the
                    // order a longer clause is normalized to.
                    clause_view c = view(ref);
                    c.set(0, other);
                    c.set(1, false_lit);
                    keep = std::copy(w + 1, end, keep);
                    watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
                    qhead_ = trail_.size();
                    return ref;
                }
                enqueue(other, ref);
                continue;
            }
            clause_view c = view(w->ref);
            // Normalize: the false literal goes to slot 1.
            if (c.get(0) == false_lit) {
                c.set(0, c.get(1));
                c.set(1, false_lit);
            }
            const lit first = c.get(0);
            if (first != w->blocker && value(first) == lbool::true_) {
                *keep++ = {w->ref, first};
                continue;
            }
            // Find a replacement watch.
            bool moved = false;
            for (std::uint32_t k = 2; k < c.size(); ++k) {
                if (value(c.get(k)) != lbool::false_) {
                    c.set(1, c.get(k));
                    c.set(k, false_lit);
                    watches_[c.get(1).index()].push_back({w->ref, first});
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            // Unit or conflict.
            const cref ref = w->ref;
            *keep++ = {ref, first};
            if (value(first) == lbool::false_) {
                // Conflict: restore the remaining watchers (over *w) and
                // report.
                keep = std::copy(w + 1, end, keep);
                watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
                qhead_ = trail_.size();
                return ref;
            }
            enqueue(first, ref);
        }
        watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
    }
    return kNoReason;
}

void solver::bump_var(var v) {
    activity_[static_cast<std::size_t>(v)] += var_inc_;
    if (activity_[static_cast<std::size_t>(v)] > kRescaleThreshold) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_contains(v)) heap_percolate_up(heap_index_[static_cast<std::size_t>(v)]);
}

void solver::hint(lit l) {
    if (l.variable() < 0 || l.variable() >= num_vars()) {
        throw std::out_of_range("sat::hint: unknown variable");
    }
    phase_[static_cast<std::size_t>(l.variable())] = l.negated() ? 0 : 1;
    bump_var(l.variable());
}

solver::clause_view solver::reason_clause(var v) {
    clause_view c = view(reason_[static_cast<std::size_t>(v)]);
    if (c.size() == 2 && c.get(0).variable() != v) {
        const lit other = c.get(0);
        c.set(0, c.get(1));
        c.set(1, other);
    }
    return c;
}

void solver::analyze(cref conflict, std::vector<lit>& learnt, int& backtrack_level,
                     std::uint32_t& lbd) {
    learnt.clear();
    learnt.push_back(lit{});  // slot for the asserting literal
    int counter = 0;
    lit p{};
    bool have_p = false;
    std::size_t trail_index = trail_.size();

    for (;;) {
        QUBIKOS_ASSERT(!have_p || reason_[static_cast<std::size_t>(p.variable())] != kNoReason);
        clause_view c = have_p ? reason_clause(p.variable()) : view(conflict);
        for (std::uint32_t i = (have_p ? 1u : 0u); i < c.size(); ++i) {
            const lit q = c.get(i);
            const var qv = q.variable();
            if (seen_[static_cast<std::size_t>(qv)] || level(qv) == 0) continue;
            seen_[static_cast<std::size_t>(qv)] = 1;
            bump_var(qv);
            if (level(qv) >= current_level()) {
                ++counter;
            } else {
                learnt.push_back(q);
            }
        }
        // Next literal on the trail to resolve on.
        while (!seen_[static_cast<std::size_t>(trail_[trail_index - 1].variable())]) {
            --trail_index;
        }
        --trail_index;
        p = trail_[trail_index];
        have_p = true;
        seen_[static_cast<std::size_t>(p.variable())] = 0;
        --counter;
        if (counter == 0) break;
    }
    learnt[0] = ~p;

    // Minimize: drop literals whose reasons are covered by the clause.
    analyze_clear_.assign(learnt.begin() + 1, learnt.end());
    for (const lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.variable())] = 1;
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        abstract_levels |= 1u << (level(learnt[i].variable()) & 31);
    }
    std::size_t keep = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        if (reason_[static_cast<std::size_t>(learnt[i].variable())] == kNoReason ||
            !literal_redundant(learnt[i], abstract_levels)) {
            learnt[keep++] = learnt[i];
        }
    }
    learnt.resize(keep);
    for (const lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.variable())] = 0;
    seen_[static_cast<std::size_t>(learnt[0].variable())] = 0;

    // Backtrack level: highest level among the non-asserting literals.
    backtrack_level = 0;
    std::size_t max_i = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        if (level(learnt[i].variable()) > level(learnt[max_i].variable())) max_i = i;
    }
    if (learnt.size() > 1) {
        std::swap(learnt[1], learnt[max_i]);
        backtrack_level = level(learnt[1].variable());
    }

    // LBD: number of distinct decision levels in the clause, counted by
    // stamping each level once.
    if (level_stamp_.size() <= static_cast<std::size_t>(current_level())) {
        level_stamp_.resize(static_cast<std::size_t>(current_level()) + 1, 0);
    }
    ++lbd_stamp_;
    lbd = 0;
    for (const lit l : learnt) {
        std::uint64_t& stamp = level_stamp_[static_cast<std::size_t>(level(l.variable()))];
        if (stamp != lbd_stamp_) {
            stamp = lbd_stamp_;
            ++lbd;
        }
    }
}

bool solver::literal_redundant(lit l, std::uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const std::size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const lit cur = analyze_stack_.back();
        analyze_stack_.pop_back();
        if (reason_[static_cast<std::size_t>(cur.variable())] == kNoReason) {
            // Reached a decision: not redundant; undo the speculative marks.
            for (std::size_t i = top; i < analyze_clear_.size(); ++i) {
                seen_[static_cast<std::size_t>(analyze_clear_[i].variable())] = 0;
            }
            analyze_clear_.resize(top);
            return false;
        }
        const clause_view c = reason_clause(cur.variable());
        for (std::uint32_t i = 1; i < c.size(); ++i) {
            const lit q = c.get(i);
            const var qv = q.variable();
            if (seen_[static_cast<std::size_t>(qv)] || level(qv) == 0) continue;
            if ((1u << (level(qv) & 31)) & ~abstract_levels) {
                for (std::size_t j = top; j < analyze_clear_.size(); ++j) {
                    seen_[static_cast<std::size_t>(analyze_clear_[j].variable())] = 0;
                }
                analyze_clear_.resize(top);
                return false;
            }
            seen_[static_cast<std::size_t>(qv)] = 1;
            analyze_clear_.push_back(q);
            analyze_stack_.push_back(q);
        }
    }
    return true;
}

void solver::backtrack(int target_level) {
    if (current_level() <= target_level) return;
    const std::size_t bound = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
    for (std::size_t i = trail_.size(); i > bound; --i) {
        const lit l = trail_[i - 1];
        const var v = l.variable();
        phase_[static_cast<std::size_t>(v)] = l.negated() ? 0 : 1;
        values_[l.index()] = lbool::undef;
        values_[(~l).index()] = lbool::undef;
        reason_[static_cast<std::size_t>(v)] = kNoReason;
        if (!heap_contains(v)) heap_insert(v);
    }
    trail_.resize(bound);
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

lit solver::decide() {
    for (;;) {
        if (heap_.empty()) return lit{};
        const var v = heap_pop();
        if (value(pos(v)) == lbool::undef) {
            return lit::make(v, phase_[static_cast<std::size_t>(v)] == 0);
        }
    }
}

void solver::reduce_db() {
    QUBIKOS_ASSERT(current_level() == 0);
    if (learned_.empty()) return;
    // Keep glue clauses (lbd <= 2) and the better half by LBD.
    std::sort(learned_.begin(), learned_.end(), [this](cref a, cref b) {
        return view(a).lbd() < view(b).lbd();
    });
    std::size_t keep = learned_.size() / 2;
    while (keep < learned_.size() && view(learned_[keep]).lbd() <= 2) ++keep;
    stats_.deleted_clauses += learned_.size() - keep;
    learned_.resize(keep);

    // Rebuild all watch lists (safe at level 0 where no reasons point at
    // learned clauses other than level-0 units, which keep no reason).
    for (auto& wl : watches_) wl.clear();
    for (const cref ref : problem_clauses_) attach(ref);
    for (const cref ref : learned_) attach(ref);
    QUBIKOS_DCHECK(watch_invariants_ok());
}

status solver::solve(const std::vector<lit>& assumptions) {
    const obs::trace_span span("sat.solve");
    const obs_stats_guard publish(stats_);
    if (!ok_) return status::unsat;
    backtrack(0);
    if (propagate() != kNoReason) {
        ok_ = false;
        return status::unsat;
    }
    QUBIKOS_DCHECK(watch_invariants_ok());
    QUBIKOS_DCHECK(trail_invariants_ok());

    std::uint64_t restart_count = 0;
    std::uint64_t conflicts_until_restart = kRestartBase * luby(restart_count);
    std::uint64_t conflicts_since_restart = 0;
    std::uint64_t max_learnt = num_problem_clauses_ / 3 + 1000;
    std::vector<lit> learnt;

    for (;;) {
        const cref conflict = propagate();
        if (conflict != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_since_restart;
            if (current_level() == 0) {
                ok_ = false;
                return status::unsat;
            }
            int backtrack_level = 0;
            std::uint32_t lbd = 0;
            analyze(conflict, learnt, backtrack_level, lbd);
            backtrack(backtrack_level);
            if (learnt.size() == 1) {
                enqueue(learnt[0], kNoReason);
            } else {
                const cref ref = alloc_clause(learnt, /*learned=*/true, lbd);
                learned_.push_back(ref);
                ++stats_.learned_clauses;
                attach(ref);
                enqueue(learnt[0], ref);
            }
            decay_var_activity();
            if (conflict_limit_ != 0 && stats_.conflicts >= conflict_limit_) {
                backtrack(0);
                return status::unknown;
            }
            continue;
        }

        if (conflicts_since_restart >= conflicts_until_restart) {
            ++stats_.restarts;
            ++restart_count;
            conflicts_since_restart = 0;
            conflicts_until_restart = kRestartBase * luby(restart_count);
            backtrack(0);
            QUBIKOS_DCHECK(trail_invariants_ok());
            if (learned_.size() > max_learnt) {
                reduce_db();
                max_learnt = max_learnt + max_learnt / 10;
            }
            continue;
        }

        // Establish assumptions as successive decision levels.
        if (current_level() < static_cast<int>(assumptions.size())) {
            const lit a = assumptions[static_cast<std::size_t>(current_level())];
            if (a.variable() < 0 || a.variable() >= num_vars()) {
                throw std::out_of_range("sat::solve: unknown assumption variable");
            }
            const lbool v = value(a);
            if (v == lbool::false_) {  // conflicts with assumptions
                // Back to level 0, so a later add_clause simplifies only
                // against root assignments.
                backtrack(0);
                return status::unsat;
            }
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            if (v == lbool::undef) enqueue(a, kNoReason);
            continue;
        }

        const lit d = decide();
        if (d == lit{}) {
            // Full assignment: record the model.
            model_.assign(static_cast<std::size_t>(num_vars()), false);
            for (int v = 0; v < num_vars(); ++v) {
                model_[static_cast<std::size_t>(v)] = value(pos(v)) == lbool::true_;
            }
            backtrack(0);
            return status::sat;
        }
        ++stats_.decisions;
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        enqueue(d, kNoReason);
    }
}

bool solver::watch_invariants_ok() {
    // Direction 1: every watcher entry's clause really holds the watched
    // literal in one of its two watch slots.
    for (std::size_t idx = 0; idx < watches_.size(); ++idx) {
        const lit watched = from_code(static_cast<std::int32_t>(idx));
        for (const watcher& w : watches_[idx]) {
            const clause_view c = view(w.ref & ~kBinaryTag);
            if (c.size() < 2) return false;
            if (c.get(0) != watched && c.get(1) != watched) return false;
            if (((w.ref & kBinaryTag) != 0) != (c.size() == 2)) return false;
            if (c.size() == 2 && w.blocker != (c.get(0) == watched ? c.get(1) : c.get(0))) {
                return false;
            }
        }
    }
    // Direction 2: every attached clause appears on exactly the lists of
    // its first two literals, once each.
    const auto watched_times = [&](cref ref, lit l) {
        std::size_t count = 0;
        for (const watcher& w : watches_[l.index()]) {
            if ((w.ref & ~kBinaryTag) == ref) ++count;
        }
        return count;
    };
    for (const std::vector<cref>* clauses : {&problem_clauses_, &learned_}) {
        for (const cref ref : *clauses) {
            const clause_view c = view(ref);
            if (watched_times(ref, c.get(0)) != 1) return false;
            if (watched_times(ref, c.get(1)) != 1) return false;
        }
    }
    return true;
}

bool solver::trail_invariants_ok() const {
    if (qhead_ != trail_.size()) return false;
    for (std::size_t i = 0; i < trail_.size(); ++i) {
        if (value(trail_[i]) != lbool::true_) return false;
    }
    // Decision markers partition the trail into non-decreasing levels.
    for (std::size_t l = 0; l < trail_lim_.size(); ++l) {
        const auto lim = static_cast<std::size_t>(trail_lim_[l]);
        if (lim > trail_.size()) return false;
        if (l > 0 && trail_lim_[l] < trail_lim_[l - 1]) return false;
    }
    return true;
}

bool solver::model_value(var v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= model_.size()) {
        throw std::out_of_range("sat::model_value: no model or unknown variable");
    }
    return model_[static_cast<std::size_t>(v)];
}

// --- indexed max-heap on activity ----------------------------------------

void solver::heap_insert(var v) {
    heap_index_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heap_percolate_up(static_cast<int>(heap_.size()) - 1);
}

void solver::heap_percolate_up(int i) {
    const var v = heap_[static_cast<std::size_t>(i)];
    const double act = activity_[static_cast<std::size_t>(v)];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        const var pv = heap_[static_cast<std::size_t>(parent)];
        if (activity_[static_cast<std::size_t>(pv)] >= act) break;
        heap_[static_cast<std::size_t>(i)] = pv;
        heap_index_[static_cast<std::size_t>(pv)] = i;
        i = parent;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_index_[static_cast<std::size_t>(v)] = i;
}

void solver::heap_percolate_down(int i) {
    const var v = heap_[static_cast<std::size_t>(i)];
    const double act = activity_[static_cast<std::size_t>(v)];
    const int n = static_cast<int>(heap_.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n &&
            activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child + 1)])] >
                activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child)])]) {
            ++child;
        }
        const var cv = heap_[static_cast<std::size_t>(child)];
        if (act >= activity_[static_cast<std::size_t>(cv)]) break;
        heap_[static_cast<std::size_t>(i)] = cv;
        heap_index_[static_cast<std::size_t>(cv)] = i;
        i = child;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_index_[static_cast<std::size_t>(v)] = i;
}

var solver::heap_pop() {
    const var top = heap_[0];
    heap_index_[static_cast<std::size_t>(top)] = -1;
    const var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_index_[static_cast<std::size_t>(last)] = 0;
        heap_percolate_down(0);
    }
    return top;
}

}  // namespace qubikos::sat
