// fig4-sycamore and certify-aspen: campaign workloads.
//
// End-to-end pass: expand the generated spec and run run_campaign_shard
// into a fresh store, exactly as `qubikos_cli campaign run` does. Traced
// pass: replay the same units from this file — generation, the registry
// tool, validation, the structure/VF2/exact checks and the store writes —
// with a span around every library call, on the same thread count and
// batch width.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "arch/architectures.hpp"
#include "campaign/plan.hpp"
#include "campaign/store.hpp"
#include "campaign/worker.hpp"
#include "circuit/interaction.hpp"
#include "circuit/routed.hpp"
#include "core/qubikos.hpp"
#include "core/verifier.hpp"
#include "exact/olsq.hpp"
#include "graph/vf2.hpp"
#include "tools/context.hpp"
#include "tools/registry.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace qubikos;
namespace fs = std::filesystem;

/// Units per append-and-fsync batch: the worker's default, mirrored by
/// the traced replay so both passes fsync equally often.
constexpr std::size_t kBatch = campaign::worker_options{}.batch_size;
/// Set-up takes about a millisecond; the median of many repetitions is
/// what a filesystem hiccup cannot move.
constexpr int kSetupReps = 21;

struct campaign_shape {
    /// One spec per round; rounds differ only in their instance seeds.
    std::vector<campaign::campaign_spec> rounds;
    int threads = 1;
};

/// The workload's specs. A run is several rounds, each a fresh campaign
/// over its own instances, and reports medians over rounds, so a burst
/// of load on a shared host moves one round rather than the run. Sizes
/// scale with --seconds (calibrated so a run takes about that long on a
/// 4-core x86 VM at the baseline commit). --seed picks the instances;
/// the tool seed stays at the spec default, because it is configuration,
/// not input, and qmap's cost swings by tens of percent with it.
campaign_shape make_shape(const run_config& cfg) {
    campaign_shape shape;
    campaign::campaign_spec spec;
    campaign::campaign_suite suite;
    int rounds = 5;
    if (cfg.workload == "fig4-sycamore") {
        // Fig. 4 shape at standard scale (1500-gate circuits, 50
        // lightsabre trials): qmap's A* dominates. Per CPU-second, large
        // circuits vary less than small ones (qmap's time averages over
        // more layers), so a round is one circuit per count.
        spec.name = "perfbench-fig4-sycamore";
        spec.mode = campaign::campaign_mode::tools;
        spec.sabre_trials = 50;
        suite.arch_name = "sycamore54";
        suite.swap_counts = {5, 10, 15, 20};
        suite.total_two_qubit_gates = 1500;
        suite.circuits_per_count = 1;
        rounds = std::max(1, cfg.seconds / 7);
        shape.threads = 2;
    } else {
        // Exact certification: SAT at k and UNSAT at k-1 dominate. Small
        // swap counts keep a unit near 0.1 s, so a run averages over
        // hundreds of instances; at k = 10-15 one instance can take 9 s
        // and a run's total would follow its few hardest instances.
        spec.name = "perfbench-certify-aspen";
        spec.mode = campaign::campaign_mode::certify;
        spec.vf2_check = true;
        suite.arch_name = "aspen4";
        suite.swap_counts = {2, 3};
        suite.total_two_qubit_gates = 40;
        suite.circuits_per_count = std::max(1, cfg.seconds / 2);
        rounds = 10;
        shape.threads = 1;
    }
    for (int r = 0; r < rounds; ++r) {
        suite.base_seed = cfg.seed * 100'000 + static_cast<std::uint64_t>(r) * 1'000 + 1;
        spec.suites = {suite};
        shape.rounds.push_back(spec);
    }
    return shape;
}

/// (unit_id, swaps, valid) plus the certify verdicts.
std::string digest_line(const campaign::stored_run& run) {
    return run.unit_id + ' ' + std::to_string(run.record.measured_swaps) + ' ' +
           (run.record.valid ? '1' : '0') + ' ' + std::to_string(run.sat_at_n) + ' ' +
           std::to_string(run.unsat_below) + ' ' + std::to_string(run.structure_ok) + ' ' +
           std::to_string(run.vf2_solvable);
}

/// Every failure rule of the workload for one unit's record.
void check_unit(const campaign::work_unit& unit, const campaign::stored_run* run,
                campaign::campaign_mode mode, run_outcome& out) {
    if (run == nullptr) return out.fail(unit.id + ": no record in the store");
    if (run->failed()) return out.fail(unit.id + ": " + run->error);
    if (!run->record.valid) return out.fail(unit.id + ": invalid result");
    if (run->record.measured_swaps < static_cast<std::size_t>(unit.designed_swaps)) {
        return out.fail(unit.id + ": " + std::to_string(run->record.measured_swaps) +
                        " swaps, below the designed optimum " +
                        std::to_string(unit.designed_swaps));
    }
    if (mode == campaign::campaign_mode::certify &&
        (run->sat_at_n != 1 || run->unsat_below != 1 || run->structure_ok != 1 ||
         run->vf2_solvable != 0)) {
        out.fail(unit.id + ": certify verdicts not confirmed");
    }
}

/// The worker's spec-level overrides for a registry tool: lightsabre's
/// trial count and every seeded tool's seed.
json::value tool_overrides(const campaign::campaign_spec& spec, const std::string& name) {
    const tools::tool_info& info = tools::tool_registry_info(name);
    json::object o;
    if (name == "lightsabre" && info.find_option("trials") != nullptr) o["trials"] = spec.sabre_trials;
    if (info.find_option("seed") != nullptr) {
        o["seed"] = static_cast<std::int64_t>(spec.toolbox_seed);
    }
    return json::value(std::move(o));
}

struct replayed_unit {
    campaign::stored_run run;
    layer_counters counters;
};

class campaign_replay {
public:
    campaign_replay(const campaign::campaign_spec& spec, const fs::path& store_dir, int threads)
        : spec_(spec), threads_(threads) {
        plan_ = traced_call("campaign.plan", 0, nullptr,
                            [&] { return campaign::expand_plan(spec_); });
        store_ = traced_call("campaign.store_open", 0, nullptr, [&] {
            return std::make_unique<campaign::result_store>(store_dir.string(), spec_);
        });
        const campaign::campaign_suite& suite = spec_.suites.front();
        device_ = arch::by_name(suite.arch_name);
        if (spec_.mode != campaign::campaign_mode::tools) return;
        const auto context = traced_call("tools.context_build", 0, nullptr, [&] {
            return tools::make_routing_context(device_.coupling);
        });
        for (const auto& name : campaign::resolved_tool_names(spec_)) {
            tools_.push_back(traced_call("tools.make_tool", 0, nullptr, [&] {
                return tools::make_tool(name, tool_overrides(spec_, name), context);
            }));
        }
    }

    /// Runs every unit in worker-sized batches; returns the records in
    /// plan order and folds attributed counters into `counters`.
    std::vector<campaign::stored_run> run(layer_counters& counters) {
        std::vector<campaign::stored_run> runs;
        std::vector<replayed_unit> batch;
        const std::size_t n = plan_.units.size();
        for (std::size_t begin = 0; begin < n; begin += kBatch) {
            const std::size_t width = std::min(kBatch, n - begin);
            batch.assign(width, {});
            thread_pool::shared().parallel_for_slots(
                0, width, static_cast<std::size_t>(threads_),
                [&](std::size_t i, std::size_t) { batch[i] = replay(begin + i); });
            for (std::size_t i = 0; i < width; ++i) {
                traced_call("campaign.store_append", begin + i, nullptr, [&] {
                    store_->append(batch[i].run);
                    return 0;
                });
                merge_counters(counters, batch[i].counters);
                runs.push_back(std::move(batch[i].run));
            }
            traced_call("campaign.store_flush", begin, nullptr, [&] {
                store_->flush();
                return 0;
            });
        }
        return runs;
    }

private:
    replayed_unit replay(std::size_t index) const {
        const campaign::work_unit& unit = plan_.units[index];
        replayed_unit out;
        campaign::stored_run& run = out.run;
        run.unit_id = unit.id;
        run.record.tool = unit.tool;
        run.record.designed_swaps = unit.designed_swaps;
        const tracer::span root("campaign.unit", index);
        try {
            const campaign::campaign_suite& suite = spec_.suites[unit.suite_index];
            core::generator_options g;
            g.num_swaps = unit.sweep_value;
            g.total_two_qubit_gates = suite.total_two_qubit_gates;
            g.single_qubit_rate = suite.single_qubit_rate;
            g.seed = unit.instance_seed;
            const core::benchmark_instance instance = traced_call(
                "core.generate", index, &out.counters, [&] { return core::generate(device_, g); });
            if (instance.optimal_swaps != unit.designed_swaps) {
                throw std::runtime_error("generator count differs from the plan");
            }
            if (spec_.mode == campaign::campaign_mode::tools) {
                replay_tool(unit, index, instance, out);
            } else {
                replay_certify(index, instance, out);
            }
        } catch (const std::exception& e) {
            run.error = e.what();
        }
        return out;
    }

    void replay_tool(const campaign::work_unit& unit, std::size_t index,
                     const core::benchmark_instance& instance, replayed_unit& out) const {
        const auto it = std::find_if(tools_.begin(), tools_.end(),
                                     [&](const eval::tool& t) { return t.name == unit.tool; });
        if (it == tools_.end()) throw std::runtime_error("unknown tool " + unit.tool);
        const eval::tool& tool = *it;
        const routed_circuit routed =
            traced_call("router." + tool.name, index, &out.counters, [&] {
                if (!tool.run_stats) return tool.run(instance.logical, device_.coupling);
                eval::tool_run_stats stats;
                return tool.run_stats(instance.logical, device_.coupling, stats);
            });
        const validation_report report = traced_call("circuit.validate", index, nullptr, [&] {
            return validate_routed(instance.logical, routed, device_.coupling);
        });
        out.run.record.valid = report.valid;
        out.run.record.measured_swaps = report.swap_count;
    }

    void replay_certify(std::size_t index, const core::benchmark_instance& instance,
                        replayed_unit& out) const {
        campaign::stored_run& run = out.run;
        const bool structure_ok = traced_call("core.verify_structure", index, &out.counters, [&] {
            return core::verify_structure(instance, device_).valid;
        });
        const bool vf2_ok = traced_call("graph.vf2", index, &out.counters, [&] {
            return is_subgraph_monomorphic(interaction_graph(instance.logical), device_.coupling);
        });
        const int k = instance.optimal_swaps;
        const bool sat = traced_call("exact.check_sat", index, &out.counters, [&] {
            return exact::check_swap_count(instance.logical, device_.coupling, k,
                                           spec_.conflict_limit) == exact::feasibility::feasible;
        });
        const bool unsat = k == 0 || traced_call("exact.check_unsat", index, &out.counters, [&] {
                               return exact::check_swap_count(instance.logical, device_.coupling,
                                                              k - 1, spec_.conflict_limit) ==
                                      exact::feasibility::infeasible;
                           });
        run.sat_at_n = sat ? 1 : 0;
        run.unsat_below = unsat ? 1 : 0;
        run.structure_ok = structure_ok ? 1 : 0;
        run.vf2_solvable = vf2_ok ? 1 : 0;
        run.record.valid = sat && unsat && structure_ok && !vf2_ok;
        run.record.measured_swaps = sat ? static_cast<std::size_t>(k) : 0;
    }

    campaign::campaign_spec spec_;
    int threads_;
    campaign::campaign_plan plan_;
    std::unique_ptr<campaign::result_store> store_;
    arch::architecture device_;
    std::vector<eval::tool> tools_;
};

/// Adds the records to the digest in plan order; with `out`, also
/// applies the failure checks.
void check_and_digest(const campaign::campaign_plan& plan,
                      const std::map<std::string, const campaign::stored_run*>& by_id,
                      line_digest& digest, run_outcome* out) {
    for (const campaign::work_unit& unit : plan.units) {
        const auto it = by_id.find(unit.id);
        const campaign::stored_run* run = it == by_id.end() ? nullptr : it->second;
        if (out != nullptr) check_unit(unit, run, plan.spec.mode, *out);
        digest.add_line(run == nullptr ? unit.id + " missing" : digest_line(*run));
    }
}

}  // namespace

run_outcome run_campaign_workload(const run_config& cfg) {
    const campaign_shape shape = make_shape(cfg);
    run_outcome out;
    tracer& tr = tracer::instance();

    // Set-up, repeated in fresh directories: plan expansion, store
    // creation and the executor's device contexts and tool lineup — the
    // work run_campaign_shard does before its first unit.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const campaign::campaign_spec& spec = shape.rounds.front();
        const fs::path dir = cfg.work_dir / ("setup-" + std::to_string(rep));
        const std::int64_t t0 = now_ns();
        const campaign::campaign_plan plan = campaign::expand_plan(spec);
        const campaign::result_store store(dir.string(), spec);
        const campaign::unit_executor executor(spec);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        fs::remove_all(dir);
    }
    out.end_to_end["setup_s"] = {median(setups), "s"};

    // End-to-end pass: each round runs run_campaign_shard into a fresh
    // store, so nothing is resumed and every unit is timed.
    campaign::worker_options options;
    options.threads = shape.threads;
    options.record_metrics = 0;
    std::vector<campaign::campaign_plan> plans;
    std::vector<std::vector<campaign::stored_run>> stored(shape.rounds.size());
    std::vector<double> walls, cpus, rates;
    line_digest digest;
    // Op latency: a certify unit, or one circuit across the whole tool
    // lineup (a Fig. 4 grid row) — per-unit times of four tools form four
    // clusters, and their median would fall in a gap between two.
    std::map<std::string, double> op_ms;
    std::map<std::string, double> tool_cpu;
    std::map<std::string, std::pair<double, double>> tool_swaps;  // measured, designed
    json::object unit_ms;
    const obs::snapshot obs_before = obs::collect();
    for (std::size_t r = 0; r < shape.rounds.size(); ++r) {
        plans.push_back(campaign::expand_plan(shape.rounds[r]));
        const campaign::campaign_plan& plan = plans.back();
        const fs::path store_dir = cfg.work_dir / ("store-e2e-" + std::to_string(r));
        const process_usage usage0 = self_usage();
        const std::int64_t t0 = now_ns();
        const campaign::worker_report report =
            campaign::run_campaign_shard(plan, store_dir.string(), options);
        walls.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        cpus.push_back(self_usage().cpu_s - usage0.cpu_s);
        rates.push_back(static_cast<double>(plan.units.size()) / walls.back());

        out.attempted += report.assigned;
        if (report.skipped != 0 || report.executed != report.assigned || report.remaining != 0 ||
            report.failed_attempts != 0 || report.quarantined != 0) {
            out.fail("round " + std::to_string(r) + " worker report: assigned " +
                     std::to_string(report.assigned) + ", skipped " +
                     std::to_string(report.skipped) + ", executed " +
                     std::to_string(report.executed) + ", failed attempts " +
                     std::to_string(report.failed_attempts));
        }
        stored[r] = campaign::result_store::load_runs(store_dir.string());
        std::map<std::string, const campaign::stored_run*> by_id;
        for (const auto& run : stored[r]) {
            if (!run.is_metrics()) by_id[run.unit_id] = &run;
        }
        check_and_digest(plan, by_id, digest, &out);
        for (const auto& [id, run] : by_id) {
            const std::string op = plan.spec.mode == campaign::campaign_mode::tools
                                       ? id.substr(0, id.rfind(':'))
                                       : id;
            op_ms[op] += run->record.seconds * 1e3;
            unit_ms[id] = run->record.seconds * 1e3;
            tool_cpu[run->record.tool] += run->record.seconds;
            tool_swaps[run->record.tool].first += static_cast<double>(run->record.measured_swaps);
            tool_swaps[run->record.tool].second += run->record.designed_swaps;
        }
    }
    const obs::snapshot obs_after = obs::collect();
    out.digest = digest.hex();
    std::vector<double> latencies_ms;
    for (const auto& [op, ms] : op_ms) latencies_ms.push_back(ms);
    add_op_metrics(out, latencies_ms, median(walls), median(rates));
    out.end_to_end["cpu_s"] = {median(cpus), "s"};
    out.end_to_end["peak_rss_mb"] = {self_usage().peak_rss_mb, "MB"};
    out.details["rounds"] = shape.rounds.size();
    out.details["round_wall_s"] = json::array(walls.begin(), walls.end());
    out.details["round_cpu_s"] = json::array(cpus.begin(), cpus.end());
    out.details["unit_ms"] = json::value(std::move(unit_ms));
    out.details["worker_threads"] = shape.threads;
    out.details["spec"] = campaign::spec_to_json(shape.rounds.front());
    out.details["setup_samples_s"] = json::array(setups.begin(), setups.end());

    if (!cfg.trace) return out;

    for (const char* tool : {"lightsabre", "mlqls", "qmap", "tket"}) {
        const auto swaps = tool_swaps[tool];
        out.per_layer[std::string("tool_cpu_s.") + tool] = {tool_cpu[tool], "s"};
        out.per_layer[std::string("swap_ratio.") + tool] = {
            swaps.second > 0 ? swaps.first / swaps.second : 0.0, "ratio"};
    }
    out.per_layer["pool.jobs"] = {
        static_cast<double>(counter_delta(obs_before, obs_after, "pool.jobs")), "count"};
    out.per_layer["pool.idle_s"] = {
        static_cast<double>(counter_delta(obs_before, obs_after, "pool.idle.ns")) / 1e9, "s"};

    // Traced pass over the same rounds and units.
    layer_counters counters;
    line_digest traced_digest;
    tr.set_recording(true);
    const std::int64_t pass_start = tr.now();
    for (std::size_t r = 0; r < shape.rounds.size(); ++r) {
        campaign_replay replay(shape.rounds[r], cfg.work_dir / ("store-traced-" + std::to_string(r)),
                               shape.threads);
        const std::vector<campaign::stored_run> replayed = replay.run(counters);
        std::map<std::string, const campaign::stored_run*> by_id;
        for (const auto& run : replayed) by_id[run.unit_id] = &run;
        check_and_digest(plans[r], by_id, traced_digest, nullptr);
    }
    const std::int64_t pass_end = tr.now();
    tr.set_recording(false);
    out.traced_digest = traced_digest.hex();

    add_layer_metrics(out, tr.totals(pass_start, pass_end), counters);
    const double e2e_wall = std::accumulate(walls.begin(), walls.end(), 0.0);
    const double traced_wall = static_cast<double>(pass_end - pass_start) / 1e9;
    out.per_layer["trace.overhead_frac"] = {traced_wall / e2e_wall - 1.0, "fraction"};
    const double covered = static_cast<double>(
        tr.covered_ns(pass_start, pass_end, {"campaign.unit"}));
    out.per_layer["trace.unattributed_frac"] = {
        1.0 - covered / (static_cast<double>(pass_end - pass_start) * shape.threads), "fraction"};
    out.details["traced_wall_s"] = traced_wall;
    return out;
}

}  // namespace perfbench
