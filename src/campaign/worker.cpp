#include "campaign/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "circuit/interaction.hpp"
#include "core/qubikos.hpp"
#include "core/queko.hpp"
#include "core/quekno.hpp"
#include "core/verifier.hpp"
#include "eval/harness.hpp"
#include "exact/olsq.hpp"
#include "graph/vf2.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "tools/context.hpp"
#include "tools/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace qubikos::campaign {

namespace {

/// Deterministic fault hook for drills and CI: any unit whose ID contains
/// the value of QUBIKOS_CAMPAIGN_FAULT_UNIT throws instead of executing.
bool fault_injected(const work_unit& unit) {
    const char* pattern = std::getenv("QUBIKOS_CAMPAIGN_FAULT_UNIT");
    return pattern != nullptr && *pattern != '\0' && unit.id.find(pattern) != std::string::npos;
}

/// True when every two-qubit gate of `logical` acts on coupling-adjacent
/// physical qubits under `witness` — the QUEKO hidden mapping's claim.
bool witness_executes(const circuit& logical, const mapping& witness, const graph& coupling) {
    for (const auto& g : logical.gates()) {
        if (!g.is_two_qubit()) continue;
        if (!coupling.has_edge(witness.physical(g.q0), witness.physical(g.q1))) return false;
    }
    return true;
}

/// The spec-level knobs as registry overrides for one variant:
/// sabre_trials feeds lightsabre's trial count and toolbox_seed every
/// seeded tool — exactly what the pre-registry worker toolbox did — and
/// the variant's own overrides win on top.
json::value campaign_tool_overrides(const campaign_spec& spec, const tool_variant& variant) {
    const tools::tool_info& info = tools::tool_registry_info(variant.name);
    json::object merged;
    if (variant.name == "lightsabre") merged["trials"] = spec.sabre_trials;
    if (info.find_option("seed") != nullptr) {
        merged["seed"] = static_cast<std::int64_t>(spec.toolbox_seed);
    }
    if (variant.has_options()) {
        for (const auto& [key, value] : variant.options.as_object()) merged[key] = value;
    }
    return json::value(std::move(merged));
}

}  // namespace

struct unit_executor::impl {
    /// A lineup entry: the tool under its label and whether it routes
    /// from the planted mapping.
    struct bound_variant {
        eval::tool tool;
        bool planted = false;
    };

    explicit impl(const campaign_spec& s) : spec(s) {
        devices.reserve(spec.suites.size());
        for (const auto& suite : spec.suites) devices.push_back(arch::by_name(suite.arch_name));
        if (spec.mode != campaign_mode::tools) return;

        // One routing context per distinct architecture — every variant
        // bound to a device shares its distance matrix — and one lineup
        // per suite (tools are device-bound through their context).
        std::map<std::string, std::shared_ptr<const tools::routing_context>> contexts;
        const auto variants = resolved_tool_variants(spec);
        suite_tools.resize(spec.suites.size());
        for (std::size_t i = 0; i < spec.suites.size(); ++i) {
            auto& context = contexts[spec.suites[i].arch_name];
            if (context == nullptr) {
                context = tools::make_routing_context(devices[i].coupling);
            }
            for (const auto& variant : variants) {
                eval::tool tool = tools::make_tool(
                    variant.name, campaign_tool_overrides(spec, variant), context);
                tool.name = variant.display();
                suite_tools[i].push_back({std::move(tool), variant.planted});
            }
        }
    }

    [[nodiscard]] const bound_variant& tool_named(std::size_t suite_index,
                                                  const std::string& label) const {
        const auto& tools = suite_tools[suite_index];
        const auto it = std::find_if(tools.begin(), tools.end(),
                                     [&](const bound_variant& v) { return v.tool.name == label; });
        if (it == tools.end()) {
            throw std::logic_error("campaign: plan references unknown tool " + label);
        }
        return *it;
    }

    void execute_qubikos(const work_unit& unit, const campaign_suite& suite,
                         const arch::architecture& device, stored_run& run) const {
        core::generator_options generator;
        generator.num_swaps = unit.sweep_value;
        generator.total_two_qubit_gates = suite.total_two_qubit_gates;
        generator.single_qubit_rate = suite.single_qubit_rate;
        generator.seed = unit.instance_seed;
        const core::benchmark_instance instance = core::generate(device, generator);
        // Never silently trust the generator: a claimed count that
        // contradicts the plan would poison every downstream ratio.
        if (instance.optimal_swaps != unit.designed_swaps) {
            throw std::runtime_error(
                "campaign: generator produced optimal_swaps=" +
                std::to_string(instance.optimal_swaps) + " for unit " + unit.id +
                " (plan says " + std::to_string(unit.designed_swaps) + ")");
        }

        if (spec.mode == campaign_mode::tools) {
            // run_tool_record fills tool and designed_swaps itself.
            const bound_variant& variant = tool_named(unit.suite_index, unit.tool);
            run.record = eval::run_tool_record(variant.tool, instance, device,
                                               variant.planted ? &instance.answer.initial
                                                               : nullptr);
            return;
        }

        run.record.tool = unit.tool;
        run.record.designed_swaps = instance.optimal_swaps;
        const bool structure_ok = core::verify_structure(instance, device).valid;
        bool vf2_expectation_met = true;
        if (spec.vf2_check) {
            // QUBIKOS's claim is that plain subgraph monomorphism CANNOT
            // place these circuits (Sec. III-C).
            const bool vf2_ok =
                is_subgraph_monomorphic(interaction_graph(instance.logical), device.coupling);
            run.vf2_solvable = vf2_ok ? 1 : 0;
            vf2_expectation_met = !vf2_ok;
        }
        const int swaps = instance.optimal_swaps;
        cpu_stopwatch timer;
        const bool sat =
            exact::check_swap_count(instance.logical, device.coupling, swaps,
                                    spec.conflict_limit) == exact::feasibility::feasible;
        const bool unsat =
            swaps == 0 ||
            exact::check_swap_count(instance.logical, device.coupling, swaps - 1,
                                    spec.conflict_limit) == exact::feasibility::infeasible;
        run.record.seconds = timer.seconds();
        run.sat_at_n = sat ? 1 : 0;
        run.unsat_below = unsat ? 1 : 0;
        run.structure_ok = structure_ok ? 1 : 0;
        run.record.valid = sat && unsat && structure_ok && vf2_expectation_met;
        run.record.measured_swaps = sat ? static_cast<std::size_t>(swaps) : 0;
    }

    void execute_queko(const work_unit& unit, const campaign_suite& suite,
                       const arch::architecture& device, stored_run& run) const {
        core::queko_options options;
        options.depth = unit.sweep_value;
        options.density = suite.queko_density;
        options.seed = unit.instance_seed;
        const core::queko_instance instance = core::generate_queko(device, options);

        if (spec.mode == campaign_mode::tools) {
            // Tools route the logical circuit against QUEKO's claimed
            // count of 0: swap *ratios* are undefined (the aggregate
            // renders them n/a) and the family's numbers live in the
            // absolute totals — every measured swap is pure overhead.
            core::benchmark_instance shim;
            shim.arch_name = device.name;
            shim.seed = unit.instance_seed;
            shim.optimal_swaps = 0;
            shim.logical = instance.logical;
            run.record = eval::run_tool_record(tool_named(unit.suite_index, unit.tool).tool, shim,
                                               device, nullptr);
            return;
        }

        // QUEKO's claims (Tan & Cong): the hidden mapping executes every
        // gate in place (0 swaps), and VF2 alone recovers such a mapping.
        run.record.tool = unit.tool;
        run.record.designed_swaps = 0;
        const bool structure_ok =
            witness_executes(instance.logical, instance.hidden_mapping, device.coupling);
        const bool vf2_ok =
            is_subgraph_monomorphic(interaction_graph(instance.logical), device.coupling);
        run.vf2_solvable = vf2_ok ? 1 : 0;
        cpu_stopwatch timer;
        const bool sat = exact::check_swap_count(instance.logical, device.coupling, 0,
                                                 spec.conflict_limit) ==
                         exact::feasibility::feasible;
        run.record.seconds = timer.seconds();
        run.sat_at_n = sat ? 1 : 0;
        run.unsat_below = 1;  // vacuous at n = 0
        run.structure_ok = structure_ok ? 1 : 0;
        run.record.valid = sat && structure_ok && vf2_ok;
        run.record.measured_swaps = 0;
    }

    void execute_quekno(const work_unit& unit, const campaign_suite& suite,
                        const arch::architecture& device, stored_run& run) const {
        core::quekno_options options;
        options.num_transitions = unit.sweep_value;
        options.gates_per_epoch = suite.quekno_gates_per_epoch;
        options.seed = unit.instance_seed;
        const core::quekno_instance instance = core::generate_quekno(device, options);
        if (instance.construction_swaps != unit.designed_swaps) {
            throw std::runtime_error(
                "campaign: quekno construction used " +
                std::to_string(instance.construction_swaps) + " swaps for unit " + unit.id +
                " (plan says " + std::to_string(unit.designed_swaps) + ")");
        }

        if (spec.mode == campaign_mode::tools) {
            // Tools see the logical circuit; the "designed" denominator is
            // the construction's (unproven) upper bound, so ratios below
            // 1 are possible — exactly the family's weakness.
            core::benchmark_instance shim;
            shim.arch_name = device.name;
            shim.seed = unit.instance_seed;
            shim.optimal_swaps = instance.construction_swaps;
            shim.logical = instance.logical;
            run.record = eval::run_tool_record(tool_named(unit.suite_index, unit.tool).tool, shim,
                                               device, nullptr);
            return;
        }

        // Certify: verify the construction really is a valid routing at
        // the claimed cost (structure), find the true optimum under the
        // claimed bound (sat — the construction witnesses feasibility),
        // and record whether the bound is tight ("UNSAT below n").
        run.record.tool = unit.tool;
        run.record.designed_swaps = instance.construction_swaps;
        const auto construction_report =
            validate_routed(instance.logical, instance.construction, device.coupling);
        const bool structure_ok =
            construction_report.valid &&
            construction_report.swap_count ==
                static_cast<std::size_t>(instance.construction_swaps);
        if (spec.vf2_check) {
            run.vf2_solvable =
                is_subgraph_monomorphic(interaction_graph(instance.logical), device.coupling)
                    ? 1
                    : 0;
        }
        exact::olsq_options solver;
        solver.max_swaps = instance.construction_swaps;
        solver.conflict_limit = spec.conflict_limit;
        cpu_stopwatch timer;
        const auto exact = exact::solve_optimal(instance.logical, device.coupling, solver);
        run.record.seconds = timer.seconds();
        const bool sat = exact.solved;
        run.sat_at_n = sat ? 1 : 0;
        run.unsat_below = sat && exact.optimal_swaps == instance.construction_swaps ? 1 : 0;
        run.structure_ok = structure_ok ? 1 : 0;
        run.record.valid = sat && structure_ok;
        run.record.measured_swaps = sat ? static_cast<std::size_t>(exact.optimal_swaps) : 0;
    }

    campaign_spec spec;
    std::vector<arch::architecture> devices;
    /// Per-suite registry lineups (tools mode only), labels as names.
    std::vector<std::vector<bound_variant>> suite_tools;
};

unit_executor::unit_executor(const campaign_spec& spec) : impl_(std::make_unique<impl>(spec)) {}

unit_executor::~unit_executor() = default;

stored_run unit_executor::execute(const work_unit& unit) const {
    if (fault_injected(unit)) {
        throw std::runtime_error("campaign: injected fault for unit " + unit.id +
                                 " (QUBIKOS_CAMPAIGN_FAULT_UNIT)");
    }
    const campaign_suite& suite = impl_->spec.suites[unit.suite_index];
    const arch::architecture& device = impl_->devices[unit.suite_index];

    stored_run run;
    run.unit_id = unit.id;
    switch (unit.family) {
        case benchmark_family::qubikos: impl_->execute_qubikos(unit, suite, device, run); break;
        case benchmark_family::queko: impl_->execute_queko(unit, suite, device, run); break;
        case benchmark_family::quekno: impl_->execute_quekno(unit, suite, device, run); break;
    }
    return run;
}

stored_run unit_executor::execute_captured(const work_unit& unit, int attempt) const {
    const auto error_record = [&](const std::string& message) {
        stored_run run;
        run.unit_id = unit.id;
        run.record.tool = unit.tool;
        run.record.designed_swaps = unit.designed_swaps;
        run.record.valid = false;
        run.attempt = attempt;
        run.error = message;
        return run;
    };
    try {
        stored_run run = execute(unit);
        run.attempt = attempt;
        return run;
    } catch (const std::exception& e) {
        return error_record(e.what());
    } catch (...) {
        // The never-throws contract must hold for non-std exceptions
        // too, or one weird throw still kills the whole shard.
        return error_record("campaign: unit threw a non-std exception");
    }
}

stored_run execute_unit(const campaign_spec& spec, const work_unit& unit) {
    // One-off executions reuse the last-built context: rebuilding the
    // full toolbox and every device graph per call made single-unit use
    // (tests, spot checks) pay the whole campaign's setup each time.
    static std::mutex mutex;
    static std::string cached_fingerprint;                  // NOLINT: guarded by mutex
    static std::shared_ptr<const unit_executor> cached;     // NOLINT: guarded by mutex
    std::shared_ptr<const unit_executor> executor;
    const std::string fingerprint = spec_fingerprint(spec);
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (cached == nullptr || cached_fingerprint != fingerprint) {
            cached = std::make_shared<const unit_executor>(spec);
            cached_fingerprint = fingerprint;
        }
        executor = cached;
    }
    return executor->execute(unit);
}

worker_report run_campaign_shard(const campaign_plan& plan, const std::string& store_dir,
                                 const worker_options& options) {
    if (options.threads < 0) {
        throw std::invalid_argument("campaign: worker threads must be >= 0");
    }
    if (options.batch_size == 0) {
        throw std::invalid_argument("campaign: worker batch_size must be >= 1");
    }
    const int max_attempts = std::max(1, plan.spec.max_attempts);

    // The shard id doubles as the store writer id, so any number of
    // shards — in one process or on many machines — write disjoint
    // segment files and their stores sync/merge without collisions.
    result_store store(store_dir, plan.spec, options.shard);
    const std::vector<std::size_t> owned =
        shard_indices(plan.units.size(), options.shard, options.num_shards);

    // A pending entry tracks how many attempts the unit has consumed and
    // how many it is allowed in total: max_attempts for fresh/retryable
    // units, one more max_attempts round on top of its history for a
    // re-opened quarantined unit.
    struct pending_unit {
        std::size_t unit_index;
        int attempts;
        int allowed;
    };
    std::deque<pending_unit> queue;

    worker_report report;
    report.assigned = owned.size();
    for (const std::size_t index : owned) {
        const unit_status status = store.status(plan.units[index].id);
        if (status.succeeded) {
            ++report.skipped;
            continue;
        }
        if (status.failed_attempts >= max_attempts && !options.retry_quarantined) {
            ++report.quarantined;
            continue;
        }
        const int allowed = status.failed_attempts >= max_attempts
                                ? status.failed_attempts + max_attempts
                                : max_attempts;
        queue.push_back({index, status.failed_attempts, allowed});
    }
    if (queue.empty()) return report;

    const unit_executor executor(plan.spec);
    const std::size_t workers =
        std::min(thread_pool::resolve_threads(static_cast<std::size_t>(options.threads)),
                 std::min(options.batch_size, queue.size()));

    std::vector<pending_unit> batch;
    std::vector<stored_run> results;
    const bool record_metrics = options.record_metrics < 0 ? obs::metrics_records()
                                                           : options.record_metrics > 0;
    std::vector<obs::snapshot> unit_metrics;
    while (!queue.empty() && (options.max_units == 0 || report.executed < options.max_units)) {
        std::size_t width = std::min(options.batch_size, queue.size());
        if (options.max_units != 0) {
            width = std::min(width, options.max_units - report.executed);
        }
        batch.assign(queue.begin(),
                     queue.begin() + static_cast<std::ptrdiff_t>(width));
        queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(width));
        results.assign(width, {});
        unit_metrics.assign(width, {});
        // execute_captured never throws, so one poisoned unit cannot
        // abort the parallel batch (or the shard).
        thread_pool::shared().parallel_for_slots(0, width, workers, [&](std::size_t i,
                                                                       std::size_t) {
            // The unit runs serially on the claiming thread, so a
            // thread-local counter delta around it attributes its cost
            // (the unit's own timer included — it closes before the
            // delta is read).
            static const obs::timer_id unit_timer = obs::timer("campaign.unit");
            const obs::thread_delta delta;
            {
                const obs::scoped_timer timing(unit_timer);
                const obs::trace_span span("campaign.unit");
                results[i] = executor.execute_captured(plan.units[batch[i].unit_index],
                                                       batch[i].attempts + 1);
            }
            if (record_metrics) unit_metrics[i] = delta.deltas();
        });
        // Append in unit order and make the whole batch durable at once.
        for (std::size_t i = 0; i < width; ++i) {
            const stored_run& run = results[i];
            if (run.failed()) {
                ++report.failed_attempts;
                if (run.attempt < batch[i].allowed) {
                    queue.push_back({batch[i].unit_index, run.attempt, batch[i].allowed});
                } else {
                    ++report.quarantined;
                }
            } else if (!run.record.valid) {
                ++report.invalid_runs;
            }
            store.append(run);
            if (!run.failed() && !unit_metrics[i].empty()) {
                stored_run metric;
                metric.unit_id = run.unit_id;
                metric.metrics = std::move(unit_metrics[i]);
                store.append(metric);
            }
            if (options.verbose) {
                if (run.failed()) {
                    std::printf("  [%s] %s attempt=%d FAILED: %s\n", run.record.tool.c_str(),
                                run.unit_id.c_str(), run.attempt, run.error.c_str());
                } else {
                    std::printf("  [%s] %s swaps=%zu valid=%d %.3fs\n", run.record.tool.c_str(),
                                run.unit_id.c_str(), run.record.measured_swaps,
                                run.record.valid ? 1 : 0, run.record.seconds);
                }
            }
        }
        store.flush();
        report.executed += width;
    }
    report.remaining = queue.size();
    return report;
}

}  // namespace qubikos::campaign
