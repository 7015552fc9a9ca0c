// qubikos-lint: hot-path — route_pass and the trial loop dominate campaign time.
#include "router/sabre.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "circuit/dag.hpp"
#include "circuit/routed.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "router/common.hpp"
#include "router/score_kernel.hpp"
#include "util/check.hpp"
#include "util/restart.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::router {

namespace {

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

/// Publishes one route's sabre_stats to the telemetry registry. Called
/// once per route at the call boundary — never from the trial hot loop —
/// so enabling observability adds a handful of counter writes per route.
void publish_sabre_stats(const sabre_stats& s) {
    static const obs::metric_id routes = obs::counter("sabre.routes");
    static const obs::metric_id trials_run = obs::counter("sabre.trials_run");
    static const obs::metric_id trials_pruned = obs::counter("sabre.trials_pruned");
    static const obs::metric_id trials_skipped = obs::counter("sabre.trials_skipped");
    static const obs::metric_id pass_decisions = obs::counter("sabre.pass_decisions");
    static const obs::metric_id force_routes = obs::counter("sabre.force_routes");
    static const obs::metric_id waves = obs::counter("sabre.waves");
    static const obs::metric_id swaps = obs::counter("sabre.best_swaps");
    obs::add(routes);
    obs::add(trials_run, s.trials_run);
    obs::add(trials_pruned, s.trials_pruned);
    obs::add(trials_skipped, s.trials_skipped);
    obs::add(pass_decisions, s.pass_decisions);
    obs::add(force_routes, s.force_routes);
    obs::add(waves, s.waves);
    obs::add(swaps, s.best_swaps);
}

/// Every buffer one routing pass touches, bundled for reuse: a trial
/// arena holds one of these and resets it per pass, so steady-state
/// trials allocate nothing. The structure-of-arrays int32 operand
/// buffers (one array per gate operand) are exactly the layout the
/// batched score kernel consumes — contiguous lanes, no interleaving.
struct pass_scratch {
    dag_frontier frontier;
    std::vector<double> decay;
    std::vector<int> executable;
    std::vector<edge> candidates;
    std::vector<int> extended;
    std::vector<char> lookahead_seen;
    std::vector<int> lookahead_queue;
    std::vector<std::int32_t> front_p0;
    std::vector<std::int32_t> front_p1;
    std::vector<std::int32_t> ext_p0;
    std::vector<std::int32_t> ext_p1;
    std::vector<double> ext_weight;
    std::vector<std::int32_t> ext_dist;
    std::vector<double> basic_out;
    std::vector<double> lookahead_out;
    std::vector<swap_score> scores;
    std::vector<std::size_t> best_indices;

    explicit pass_scratch(const gate_dag& dag) : frontier(dag) {}
};

/// Abort bounds of one pass. `max_decisions` is the wave-frozen swap
/// budget of the portfolio's mapping passes; `incumbent` (emission pass
/// only) aborts a trial once its emitted swaps exceed the best completed
/// trial — a sound cut: the aborted trial could not have won.
struct pass_limits {
    std::size_t max_decisions = kNoLimit;
    const std::atomic<std::size_t>* incumbent = nullptr;
};

/// One routing pass over a prepared DAG. `current` is the initial
/// mapping on entry and the final mapping on return. Returns false when
/// a limit aborted the pass (current/emit then hold partial state).
/// `decisions` accumulates every swap applied, across calls.
///
/// The inner loops run on the reused scratch: the executable drain
/// collects into one vector instead of copying the front layer per
/// sweep, per-gate physical operand locations are looked up once per
/// decision point (not once per candidate x gate) into flat int32
/// buffers, and the score / tie-break vectors keep their capacity across
/// iterations.
bool route_pass(const gate_dag& dag, const graph& coupling, const distance_provider& dist,
                mapping& current, const sabre_options& options, rng& random,
                emission_buffer* emit, const sabre_observer& observer,
                std::size_t* force_route_count, pass_scratch& scratch,
                const pass_limits& limits, std::size_t& decisions) {
    dag_frontier& frontier = scratch.frontier;
    frontier.reset(dag);
    scratch.decay.assign(static_cast<std::size_t>(coupling.num_vertices()), 1.0);
    std::vector<double>& decay = scratch.decay;
    int swaps_since_reset = 0;
    int swaps_since_progress = 0;
    const int release_threshold =
        options.release_valve > 0 ? options.release_valve : 3 * dist.diameter() + 20;

    std::vector<int>& executable = scratch.executable;
    std::vector<edge>& candidates = scratch.candidates;
    std::vector<std::int32_t>& front_p0 = scratch.front_p0;
    std::vector<std::int32_t>& front_p1 = scratch.front_p1;
    std::vector<std::int32_t>& ext_p0 = scratch.ext_p0;
    std::vector<std::int32_t>& ext_p1 = scratch.ext_p1;
    std::vector<double>& ext_weight = scratch.ext_weight;
    std::vector<swap_score>& scores = scratch.scores;
    std::vector<std::size_t>& best_indices = scratch.best_indices;

    const auto reset_decay = [&decay, &swaps_since_reset]() {
        std::fill(decay.begin(), decay.end(), 1.0);
        swaps_since_reset = 0;
    };

    const auto over_incumbent = [&]() {
        return limits.incumbent != nullptr && emit != nullptr &&
               emit->swaps_emitted() > limits.incumbent->load(std::memory_order_relaxed);
    };

    while (!frontier.done()) {
        // Execute everything executable. The mapping is fixed during a
        // sweep, so collecting first and executing second sees exactly
        // the nodes a front-layer snapshot would.
        bool executed_any = true;
        bool progressed = false;
        while (executed_any) {
            executed_any = false;
            executable.clear();
            for (const int node : frontier.front()) {
                const gate& g = dag.node_gate(node);
                if (coupling.has_edge(current.physical(g.q0), current.physical(g.q1))) {
                    executable.push_back(node);
                }
            }
            for (const int node : executable) {
                if (emit != nullptr) emit->execute_two_qubit(node, current);
                frontier.execute(node);
                executed_any = true;
                progressed = true;
            }
        }
        if (progressed) {
            reset_decay();
            swaps_since_progress = 0;
        }
        if (frontier.done()) break;

        // Release valve: guarantee progress on adversarial instances.
        if (swaps_since_progress > release_threshold) {
            if (force_route_count != nullptr) ++(*force_route_count);
            int best_node = frontier.front().front();
            int best_distance = std::numeric_limits<int>::max();
            for (const int node : frontier.front()) {
                const gate& g = dag.node_gate(node);
                const int d = dist(current.physical(g.q0), current.physical(g.q1));
                if (d < best_distance) {
                    best_distance = d;
                    best_node = node;
                }
            }
            if (emit != nullptr) {
                const std::size_t before = emit->swaps_emitted();
                force_route(best_node, dag, coupling, dist, current, *emit);
                decisions += emit->swaps_emitted() - before;
                if (over_incumbent()) return false;
            } else {
                // Mapping-only pass: apply the same swaps without emission.
                const gate& g = dag.node_gate(best_node);
                int pa = current.physical(g.q0);
                const int pb = current.physical(g.q1);
                while (!coupling.has_edge(pa, pb)) {
                    for (const int pn : coupling.neighbors(pa)) {
                        if (dist(pn, pb) < dist(pa, pb)) {
                            current.swap_physical(pa, pn);
                            pa = pn;
                            break;
                        }
                    }
                    if (++decisions > limits.max_decisions) return false;
                }
            }
            swaps_since_progress = 0;
            reset_decay();
            continue;
        }

        // Score candidate swaps.
        candidate_swaps(frontier.front(), dag, coupling, current, candidates);
        frontier.lookahead_set(options.extended_set_size, scratch.extended,
                               scratch.lookahead_seen, scratch.lookahead_queue);
        const std::vector<int>& extended = scratch.extended;
        const auto& front = frontier.front();

        // Physical operand locations, looked up once per decision point
        // and shared by every candidate's score. Structure-of-arrays
        // (one lane per operand) so the batched kernel reads contiguous
        // memory.
        front_p0.clear();
        front_p1.clear();
        for (const int node : front) {
            const gate& g = dag.node_gate(node);
            front_p0.push_back(current.physical(g.q0));
            front_p1.push_back(current.physical(g.q1));
        }
        ext_p0.clear();
        ext_p1.clear();
        for (const int node : extended) {
            const gate& g = dag.node_gate(node);
            ext_p0.push_back(current.physical(g.q0));
            ext_p1.push_back(current.physical(g.q1));
        }

        // Extended-set position weights (uniform when lookahead_decay==1).
        ext_weight.assign(extended.size(), 1.0);
        double ext_norm = static_cast<double>(extended.size());
        if (options.lookahead_decay < 1.0 && !extended.empty()) {
            double w = 1.0;
            ext_norm = 0.0;
            for (std::size_t i = 0; i < extended.size(); ++i) {
                ext_weight[i] = w;
                ext_norm += w;
                w *= options.lookahead_decay;
            }
        }

        // All candidates of the decision point scored in one kernel call
        // (scalar or SIMD — bit-identical either way; see score_kernel).
        score_batch batch;
        batch.front_p0 = front_p0.data();
        batch.front_p1 = front_p1.data();
        batch.front_gates = front_p0.size();
        batch.ext_p0 = ext_p0.data();
        batch.ext_p1 = ext_p1.data();
        batch.ext_gates = ext_p0.size();
        batch.ext_weight = ext_weight.data();
        batch.ext_norm = ext_norm;
        batch.extended_set_weight = options.extended_set_weight;
        batch.dist = &dist;
        scratch.basic_out.resize(candidates.size());
        scratch.lookahead_out.resize(candidates.size());
        score_candidates(batch, candidates.data(), candidates.size(),
                         scratch.basic_out.data(), scratch.lookahead_out.data(),
                         scratch.ext_dist);

        scores.clear();
        scores.reserve(candidates.size());
        double best_total = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            swap_score s;
            s.candidate = candidates[c];
            s.basic = scratch.basic_out[c];
            s.lookahead = scratch.lookahead_out[c];
            s.decay_factor = std::max(decay[static_cast<std::size_t>(candidates[c].a)],
                                      decay[static_cast<std::size_t>(candidates[c].b)]);
            best_total = std::min(best_total, s.total());
            scores.push_back(s);
        }

        // Random tie-break among the best candidates (as Qiskit does).
        best_indices.clear();
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (scores[i].total() <= best_total + 1e-12) best_indices.push_back(i);
        }
        const std::size_t pick = best_indices[random.below(best_indices.size())];
        const edge chosen = scores[pick].candidate;

        if (observer) {
            sabre_decision d;
            d.front_nodes = front;
            d.extended_nodes = extended;
            d.scores = scores;
            d.chosen = chosen;
            d.swaps_so_far = emit != nullptr ? emit->swaps_emitted() : 0;
            observer(d);
        }

        if (emit != nullptr) emit->emit_swap(chosen.a, chosen.b);
        current.swap_physical(chosen.a, chosen.b);
        decay[static_cast<std::size_t>(chosen.a)] += options.decay_increment;
        decay[static_cast<std::size_t>(chosen.b)] += options.decay_increment;
        ++swaps_since_progress;
        if (++swaps_since_reset >= options.decay_reset_interval) reset_decay();
        if (++decisions > limits.max_decisions) return false;
        if (over_incumbent()) return false;
    }

    return true;
}

/// Reverses a circuit's gate order (dependency structure mirrored); used
/// by the bidirectional initial-mapping refinement.
circuit reversed(const circuit& c) {
    circuit out(c.num_qubits());
    for (std::size_t i = c.size(); i > 0; --i) out.append(c[i - 1]);
    return out;
}

/// Per-slot trial arena: all pass scratch plus the slot's running
/// reduction state. Trials on one slot arrive in increasing index order
/// (the pool's claim cursor is monotonic), so keeping the first
/// strictly-better result reproduces the serial lowest-index tie-break;
/// the cross-slot reduction finishes the job lexicographically.
struct trial_arena {
    pass_scratch scratch;
    emission_buffer emit;
    mapping initial;
    mapping current;
    std::vector<int> perm;

    std::size_t best_swaps = kNoLimit;
    long best_trial = -1;
    mapping best_initial;
    circuit best_physical;
    std::size_t force_routes = 0;
    std::size_t decisions = 0;
    std::size_t completed = 0;
    std::size_t pruned = 0;
    /// Costliest single mapping pass of the slot-best trial (portfolio
    /// budget auto-calibration; deterministic — a completing trial's
    /// mapping passes ran un-aborted).
    std::size_t best_map_pass = 0;

    trial_arena(const circuit& logical, const gate_dag& dag, int num_physical)
        : scratch(dag), emit(logical, dag, num_physical) {}
};

/// Shared fixtures of one route_sabre call.
struct trial_context {
    const circuit& logical;
    const graph& coupling;
    const distance_provider& dist;
    const gate_dag& dag;
    const gate_dag& reverse_dag;
    const sabre_options& options;
};

/// Runs one trial in `arena`. Returns true when the trial completed (its
/// result is folded into the slot state), false when a limit pruned it.
bool run_trial(const trial_context& ctx, trial_arena& arena, std::size_t trial,
               std::size_t map_budget, const std::atomic<std::size_t>* incumbent) {
    // Salted stream: tool seeds must never alias generator seeds, or
    // a trial would silently reproduce the planted optimal mapping.
    rng random((ctx.options.seed ^ 0x5ab3e7a1c2d9f04bULL) +
               static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL);
    mapping::random_into(arena.initial, ctx.logical.num_qubits(),
                         ctx.coupling.num_vertices(), random, arena.perm);

    std::size_t trial_map_pass = 0;
    if (ctx.options.bidirectional) {
        // Forward then backward mapping-only passes refine the initial
        // mapping (SABRE's bidirectional trick). `map_budget` bounds each
        // pass individually (decisions accumulates across passes and
        // trials), so the limit is offset by the pass start.
        arena.current = arena.initial;
        std::size_t before = arena.decisions;
        pass_limits budget{map_budget == kNoLimit ? kNoLimit : before + map_budget, nullptr};
        if (!route_pass(ctx.dag, ctx.coupling, ctx.dist, arena.current, ctx.options, random,
                        nullptr, {}, nullptr, arena.scratch, budget, arena.decisions)) {
            return false;
        }
        trial_map_pass = arena.decisions - before;
        before = arena.decisions;
        budget.max_decisions = map_budget == kNoLimit ? kNoLimit : before + map_budget;
        if (!route_pass(ctx.reverse_dag, ctx.coupling, ctx.dist, arena.current, ctx.options,
                        random, nullptr, {}, nullptr, arena.scratch, budget,
                        arena.decisions)) {
            return false;
        }
        trial_map_pass = std::max(trial_map_pass, arena.decisions - before);
        arena.initial = arena.current;
    }

    arena.emit.reset();
    std::size_t force_routes = 0;
    arena.current = arena.initial;
    const bool done =
        route_pass(ctx.dag, ctx.coupling, ctx.dist, arena.current, ctx.options, random,
                   &arena.emit, {}, &force_routes, arena.scratch,
                   pass_limits{kNoLimit, incumbent}, arena.decisions);
    arena.force_routes += force_routes;
    if (!done) return false;
    arena.emit.finish(arena.current);

    const std::size_t swaps = arena.emit.swaps_emitted();
    if (swaps < arena.best_swaps) {
        arena.best_swaps = swaps;
        arena.best_trial = static_cast<long>(trial);
        arena.best_initial = arena.initial;
        arena.best_physical = arena.emit.physical_circuit();
        arena.best_map_pass = trial_map_pass;
    }
    return true;
}

/// Deterministic cross-slot reduction: fewest swaps wins, ties broken by
/// lowest trial index — together with the in-slot ascending-order scan
/// this is bit-identical to the serial loop for any thread count.
routed_circuit reduce_slots(std::vector<trial_arena>& arenas, sabre_stats* stats,
                            std::size_t requested_trials) {
    trial_arena* winner = nullptr;
    std::size_t total_force_routes = 0;
    std::size_t total_decisions = 0;
    std::size_t completed = 0;
    std::size_t pruned = 0;
    for (auto& arena : arenas) {
        total_force_routes += arena.force_routes;
        total_decisions += arena.decisions;
        completed += arena.completed;
        pruned += arena.pruned;
        if (arena.best_trial < 0) continue;
        if (winner == nullptr || arena.best_swaps < winner->best_swaps ||
            (arena.best_swaps == winner->best_swaps && arena.best_trial < winner->best_trial)) {
            winner = &arena;
        }
    }
    if (winner == nullptr) {
        // Unreachable by construction: the first trial to finish always
        // completes (the incumbent is unset until then, and wave 0 runs
        // unbudgeted).
        throw std::logic_error("route_sabre: every trial was pruned");
    }
    routed_circuit best;
    best.initial = std::move(winner->best_initial);
    best.physical = std::move(winner->best_physical);
    // The winning trial's initial mapping must still be a bijection —
    // a trial that corrupted its mapping would otherwise surface as a
    // silently-invalid routed circuit at report time.
    QUBIKOS_DCHECK(best.initial.is_consistent());
    if (stats != nullptr) {
        stats->best_swaps = winner->best_swaps;
        stats->best_trial = static_cast<int>(winner->best_trial);
        stats->force_routes = total_force_routes;
        stats->trials_run = completed;
        stats->trials_pruned = pruned;
        stats->trials_skipped = requested_trials - completed - pruned;
        stats->pass_decisions = total_decisions;
        stats->waves = 0;
        stats->arena_slots = arenas.size();
    }
    return best;
}

void validate_options(const sabre_options& options) {
    if (options.trials < 1) throw std::invalid_argument("route_sabre: trials must be >= 1");
    if (options.threads < 0) throw std::invalid_argument("route_sabre: threads must be >= 0");
    if (options.portfolio_wave < 0 || options.portfolio_budget_base < 0 ||
        options.portfolio_patience < 0 || options.portfolio_target_swaps < 0) {
        throw std::invalid_argument("route_sabre: portfolio knobs must be >= 0");
    }
    if (options.portfolio_budget_growth != 0.0 && options.portfolio_budget_growth < 1.0) {
        throw std::invalid_argument(
            "route_sabre: portfolio_budget_growth must be 0 (luby) or >= 1");
    }
}

/// Mapping-pass budget of wave `w` (>= 1): base scaled by the Luby
/// sequence, or geometrically when growth >= 1.
std::size_t wave_budget(std::size_t base, std::size_t w, double growth) {
    if (base == 0) return kNoLimit;
    if (growth >= 1.0) {
        const double b = static_cast<double>(base) * std::pow(growth, static_cast<double>(w - 1));
        if (b >= static_cast<double>(kNoLimit) / 2) return kNoLimit;
        return static_cast<std::size_t>(b);
    }
    const std::uint64_t factor = luby(static_cast<std::uint64_t>(w - 1));
    if (factor > kNoLimit / base) return kNoLimit;
    return base * static_cast<std::size_t>(factor);
}

/// The portfolio trial scheduler: deterministic waves of diversified-seed
/// trials under luby/geometric mapping-pass budgets, a relaxed atomic
/// incumbent aborting hopeless emission passes, and early stop on target
/// quality or stalled improvement. See sabre_options for the soundness /
/// determinism contract.
routed_circuit route_sabre_portfolio(const trial_context& ctx, sabre_stats* stats) {
    const sabre_options& options = ctx.options;
    const std::size_t trials = static_cast<std::size_t>(options.trials);
    const std::size_t width = std::min(
        thread_pool::resolve_threads(static_cast<std::size_t>(options.threads)), trials);
    const std::size_t wave_size = options.portfolio_wave > 0
                                      ? static_cast<std::size_t>(options.portfolio_wave)
                                      : std::max<std::size_t>(width, 4);

    std::vector<trial_arena> arenas;
    arenas.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
        arenas.emplace_back(ctx.logical, ctx.dag, ctx.coupling.num_vertices());
    }

    std::atomic<std::size_t> incumbent{kNoLimit};
    const std::size_t explicit_base = static_cast<std::size_t>(options.portfolio_budget_base);
    std::size_t budget_base = explicit_base;
    std::size_t scheduled = 0;
    std::size_t wave_index = 0;
    int stale_waves = 0;
    std::size_t frozen_best = kNoLimit;

    while (scheduled < trials) {
        if (options.portfolio_target_swaps > 0 &&
            frozen_best <= static_cast<std::size_t>(options.portfolio_target_swaps)) {
            break;
        }
        if (options.portfolio_patience > 0 && stale_waves >= options.portfolio_patience) break;

        const std::size_t map_budget =
            wave_index == 0 ? kNoLimit
                            : wave_budget(budget_base, wave_index, options.portfolio_budget_growth);
        const std::size_t wave_end = std::min(scheduled + wave_size, trials);
        const obs::trace_span wave_span("sabre.wave");
        thread_pool::shared().parallel_for_slots(
            scheduled, wave_end, width,
            [&](std::size_t trial, std::size_t slot) {
                trial_arena& arena = arenas[slot];
                if (!run_trial(ctx, arena, trial, map_budget, &incumbent)) {
                    ++arena.pruned;
                    return;
                }
                ++arena.completed;
                // Relaxed fetch-min: later trials abort against the best
                // completed swap count.
                std::size_t cur = incumbent.load(std::memory_order_relaxed);
                const std::size_t swaps = arena.emit.swaps_emitted();
                while (swaps < cur &&
                       !incumbent.compare_exchange_weak(cur, swaps, std::memory_order_relaxed)) {
                }
            },
            /*chunk=*/1);
        scheduled = wave_end;
        ++wave_index;

        // Wave barrier: every scheduling input below is deterministic —
        // the global winner is the lexicographic (swaps, trial) minimum
        // over completed trials, trials achieving the true best always
        // complete, and a completing trial's mapping passes ran
        // un-aborted — so budgets and stop decisions replay exactly for
        // any thread count.
        const trial_arena* winner = nullptr;
        for (const auto& arena : arenas) {
            if (arena.best_trial < 0) continue;
            if (winner == nullptr || arena.best_swaps < winner->best_swaps ||
                (arena.best_swaps == winner->best_swaps &&
                 arena.best_trial < winner->best_trial)) {
                winner = &arena;
            }
        }
        if (explicit_base == 0 && winner != nullptr) {
            // Auto-calibration: half of the winner's own costliest
            // mapping pass. Tight on purpose — trials whose
            // refinement runs past what the incumbent class needed are
            // abandoned early, and the Luby schedule's 2x / 4x waves
            // still let winner-class and long-shot trials run far.
            budget_base = winner->best_map_pass / 2;
        }
        const std::size_t best_now = winner != nullptr ? winner->best_swaps : kNoLimit;
        stale_waves = best_now < frozen_best ? 0 : stale_waves + 1;
        frozen_best = best_now;
    }

    routed_circuit best = reduce_slots(arenas, stats, trials);
    if (stats != nullptr) stats->waves = wave_index;
    return best;
}

/// The fixed-initial mode of route_sabre: one routing pass from the
/// caller's mapping, no trials and no refinement.
routed_circuit route_from_initial(const circuit& logical, const graph& coupling,
                                  const distance_provider& dist, const mapping& initial,
                                  const sabre_options& options, sabre_stats* stats,
                                  const sabre_observer& observer) {
    const obs::trace_span span("sabre.route");
    QUBIKOS_CHECK_MSG(initial.num_program() == logical.num_qubits() &&
                          initial.num_physical() == coupling.num_vertices(),
                      "initial mapping is " << initial.num_program() << "->"
                                            << initial.num_physical() << ", circuit/device is "
                                            << logical.num_qubits() << "/"
                                            << coupling.num_vertices());
    QUBIKOS_DCHECK(initial.is_consistent());
    sabre_stats local_stats;
    if (stats == nullptr && obs::enabled()) stats = &local_stats;
    const gate_dag dag(logical);
    rng random(options.seed);

    pass_scratch scratch(dag);
    emission_buffer emit(logical, dag, coupling.num_vertices());
    std::size_t force_routes = 0;
    std::size_t decisions = 0;
    mapping final_mapping = initial;
    route_pass(dag, coupling, dist, final_mapping, options, random, &emit, observer,
               &force_routes, scratch, {}, decisions);
    emit.finish(final_mapping);

    routed_circuit out;
    out.initial = initial;
    out.physical = emit.take();
    // Legality before emission to the caller: every two-qubit gate on a
    // coupled pair, and the physical circuit replays the logical traces.
    QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
    if (stats != nullptr) {
        *stats = {};
        stats->best_swaps = out.swap_count();
        stats->best_trial = 0;
        stats->force_routes = force_routes;
        stats->trials_run = 1;
        stats->pass_decisions = decisions;
        stats->arena_slots = 1;
        if (obs::enabled()) publish_sabre_stats(*stats);
    }
    return out;
}

}  // namespace

mapping sabre_final_mapping(const circuit& logical, const graph& coupling,
                            const distance_provider& dist, const mapping& initial,
                            const sabre_options& options) {
    const gate_dag dag(logical);
    rng random(options.seed);
    pass_scratch scratch(dag);
    std::size_t decisions = 0;
    mapping current = initial;
    route_pass(dag, coupling, dist, current, options, random, nullptr, {}, nullptr, scratch,
               {}, decisions);
    // A mapping-only pass applies SWAPs in place; the result must still
    // be the same bijection up to permutation.
    QUBIKOS_DCHECK(current.is_consistent());
    return current;
}

routed_circuit route_sabre(const circuit& logical, const graph& coupling,
                           const distance_provider& dist, const sabre_options& options,
                           const mapping* initial, sabre_stats* stats,
                           const sabre_observer& observer) {
    if (initial != nullptr) {
        return route_from_initial(logical, coupling, dist, *initial, options, stats, observer);
    }
    validate_options(options);
    const obs::trace_span span("sabre.route");
    // Publish stats even when the caller passed none: route into a local
    // so the telemetry layer sees every route's totals.
    sabre_stats local_stats;
    if (stats == nullptr && obs::enabled()) stats = &local_stats;
    const gate_dag dag(logical);
    const circuit reversed_logical = reversed(logical);
    const gate_dag reverse_dag(reversed_logical);
    const trial_context ctx{logical, coupling, dist, dag, reverse_dag, options};

    if (options.portfolio) {
        routed_circuit out = route_sabre_portfolio(ctx, stats);
        QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
        if (stats != nullptr && obs::enabled()) publish_sabre_stats(*stats);
        return out;
    }

    // Trials draw from independent salted RNG streams and share only
    // read-only state, so they are embarrassingly parallel: each slot of
    // the process-wide pool runs trials out of its own arena (steady
    // state allocates nothing) and keeps a running slot-local best, then
    // a serial reduction picks the winner. Peak memory is O(slots), not
    // O(trials) — at paper scale (1000 trials) holding every routed
    // circuit at once would dwarf the routing state itself.
    const std::size_t trials = static_cast<std::size_t>(options.trials);
    const std::size_t width = std::min(
        thread_pool::resolve_threads(static_cast<std::size_t>(options.threads)), trials);
    std::vector<trial_arena> arenas;
    arenas.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
        arenas.emplace_back(logical, dag, coupling.num_vertices());
    }

    thread_pool::shared().parallel_for_slots(
        0, trials, width,
        [&](std::size_t trial, std::size_t slot) {
            trial_arena& arena = arenas[slot];
            run_trial(ctx, arena, trial, kNoLimit, nullptr);
            ++arena.completed;
        },
        /*chunk=*/1);

    routed_circuit out = reduce_slots(arenas, stats, trials);
    QUBIKOS_DCHECK(validate_routed(logical, out, coupling).valid);
    if (stats != nullptr && obs::enabled()) publish_sabre_stats(*stats);
    return out;
}

}  // namespace qubikos::router
