#include "campaign/report.hpp"

#include <array>
#include <map>
#include <unordered_map>

#include "util/table.hpp"

namespace qubikos::campaign {

namespace {

/// Renders one tool's swap-ratio column: "n/a" where the denominator is
/// zero (QUEKO cells claim 0 optimal swaps), a ratio everywhere else.
std::string ratio_or_na(bool defined, double ratio) {
    return defined ? ascii_table::num(ratio, 4) + "x" : std::string("n/a");
}

/// Per-tool absolute sums across cells — the aggregate that stays finite
/// when ratios cannot (a 0-optimal-swaps suite never divides by zero).
struct tool_totals {
    std::size_t swaps = 0;
    long long optimal = 0;
};

tool_totals totals_for(const std::vector<eval::ratio_cell>& cells, const std::string& tool) {
    tool_totals totals;
    for (const auto& cell : cells) {
        if (cell.tool != tool) continue;
        totals.swaps += cell.total_swaps;
        totals.optimal += cell.total_optimal_swaps;
    }
    return totals;
}

/// The per-tool gap summary (mean/geomean over ratio-bearing cells plus
/// absolute totals), shared by the per-suite and cross-suite tables.
void render_gap_table(const std::vector<eval::ratio_cell>& cells,
                      const std::vector<std::string>& tools, std::string& out) {
    ascii_table gaps({"tool", "mean gap", "geomean gap", "total swaps", "total optimal"});
    for (const auto& tool : tools) {
        bool present = false;
        for (const auto& cell : cells) present = present || cell.tool == tool;
        if (!present) continue;
        const bool has_ratio = eval::has_ratio_cells(cells, tool);
        const tool_totals totals = totals_for(cells, tool);
        gaps.add(tool, ratio_or_na(has_ratio, has_ratio ? eval::mean_ratio(cells, tool) : 0.0),
                 ratio_or_na(has_ratio, has_ratio ? eval::geomean_ratio(cells, tool) : 0.0),
                 totals.swaps, totals.optimal);
    }
    out += gaps.str();
}

std::string suite_banner(std::size_t index, const campaign_suite& suite) {
    std::string counts;
    for (const int c : suite.swap_counts) {
        if (!counts.empty()) counts += ",";
        counts += std::to_string(c);
    }
    // The family tag only appears for non-qubikos suites, so v1 reports
    // keep their exact bytes.
    const std::string family = suite.family == benchmark_family::qubikos
                                   ? std::string()
                                   : std::string(" [") + family_name(suite.family) + "]";
    return "suite " + std::to_string(index) + ": " + suite.arch_name + family + " (counts {" +
           counts + "} x " + std::to_string(suite.circuits_per_count) + ", " +
           std::to_string(suite.total_two_qubit_gates) + "-gate padding, seed " +
           std::to_string(suite.base_seed) + ")\n";
}

void render_tools_suite(const campaign_suite& suite, std::size_t index,
                        const std::vector<eval::run_record>& records,
                        const std::vector<std::string>& tools, std::string& out,
                        std::vector<eval::ratio_cell>& all_cells) {
    out += suite_banner(index, suite);
    if (records.empty()) {
        out += "  (no records)\n\n";
        return;
    }
    const auto cells = eval::aggregate(records);
    ascii_table table({"tool", "designed n", "runs", "avg swaps", "swap ratio", "depth ratio"});
    for (const auto& cell : cells) {
        table.add(cell.tool, cell.designed_swaps, cell.runs,
                  ascii_table::num(cell.average_swaps, 2),
                  ratio_or_na(cell.has_ratio(), cell.swap_ratio),
                  ascii_table::num(cell.average_depth_ratio, 4) + "x");
    }
    out += table.str();

    render_gap_table(cells, tools, out);
    out += "\n";
    all_cells.insert(all_cells.end(), cells.begin(), cells.end());
}

void render_certify_suite(const campaign_suite& suite, std::size_t index,
                          const std::vector<stored_run>& runs, std::string& out) {
    out += suite_banner(index, suite);
    // Per designed count: recorded / SAT at n / UNSAT at n-1 / structure /
    // VF2-solvable / fully confirmed. The VF2 column only renders when
    // some run carries the probe, so pre-v2 certify reports keep their
    // exact bytes.
    bool any_vf2 = false;
    for (const auto& run : runs) any_vf2 = any_vf2 || run.vf2_solvable >= 0;
    std::map<int, std::array<int, 6>> counts;
    for (const auto& run : runs) {
        auto& c = counts[run.record.designed_swaps];
        ++c[0];
        if (run.sat_at_n == 1) ++c[1];
        if (run.unsat_below == 1) ++c[2];
        if (run.structure_ok == 1) ++c[3];
        if (run.record.valid) ++c[4];
        if (run.vf2_solvable == 1) ++c[5];
    }
    std::vector<std::string> header = {"designed n", "circuits", "SAT at n", "UNSAT at n-1",
                                       "structure ok"};
    if (any_vf2) header.push_back("VF2 solvable");
    header.push_back("confirmed");
    ascii_table table(header);
    for (const auto& [n, c] : counts) {
        const auto frac = [&](int k) { return std::to_string(k) + "/" + std::to_string(c[0]); };
        if (any_vf2) {
            table.add(n, c[0], frac(c[1]), frac(c[2]), frac(c[3]), frac(c[5]), frac(c[4]));
        } else {
            table.add(n, c[0], frac(c[1]), frac(c[2]), frac(c[3]), frac(c[4]));
        }
    }
    out += table.str();
    out += "\n";
}

}  // namespace

std::string render_report(const campaign_plan& plan, const merge_result& merged) {
    const campaign_spec& spec = plan.spec;
    std::string out;
    out += "campaign report: " + spec.name + " (mode " + mode_name(spec.mode) + ", fingerprint " +
           spec_fingerprint(spec) + ")\n";
    out += "units: " + std::to_string(merged.runs.size()) + "/" +
           std::to_string(plan.units.size()) + " recorded, " +
           std::to_string(merged.invalid_runs) + " invalid, " +
           std::to_string(merged.missing.size()) + " missing\n";
    if (!merged.missing.empty()) {
        out += "first missing:";
        for (std::size_t i = 0; i < merged.missing.size() && i < 5; ++i) {
            out += " " + merged.missing[i];
        }
        out += "\n";
    }
    // Rendered only when failures exist, so a drained (or fault-free)
    // campaign's report stays byte-identical to the clean reference.
    if (!merged.failed.empty()) {
        const int max_attempts = spec.max_attempts < 1 ? 1 : spec.max_attempts;
        std::size_t quarantined = 0;
        for (const auto& f : merged.failed) {
            if (f.attempts >= max_attempts) ++quarantined;
        }
        const std::size_t retryable = merged.failed.size() - quarantined;
        out += "failed units: " + std::to_string(quarantined) + " quarantined (re-open with "
               "`campaign run --retry-quarantined`), " + std::to_string(retryable) +
               " retryable (a plain `campaign run` retries them)\n";
        constexpr std::size_t listed = 5;
        for (std::size_t i = 0; i < merged.failed.size() && i < listed; ++i) {
            const auto& f = merged.failed[i];
            out += "  " + f.unit_id + " (attempts " + std::to_string(f.attempts) + "): " +
                   f.error + "\n";
        }
        if (merged.failed.size() > listed) {
            out += "  ... and " + std::to_string(merged.failed.size() - listed) + " more\n";
        }
    }
    out += "\n";

    // Group the plan-ordered runs by suite. merged.runs omits missing
    // units, so walk both sequences by unit ID.
    std::unordered_map<std::string, std::size_t> suite_of;
    suite_of.reserve(plan.units.size());
    for (const auto& unit : plan.units) suite_of.emplace(unit.id, unit.suite_index);
    std::vector<std::vector<stored_run>> per_suite(spec.suites.size());
    for (const auto& run : merged.runs) {
        per_suite[suite_of.at(run.unit_id)].push_back(run);
    }

    if (spec.mode == campaign_mode::certify) {
        int confirmed = 0;
        for (const auto& run : merged.runs) {
            if (run.record.valid) ++confirmed;
        }
        for (std::size_t i = 0; i < spec.suites.size(); ++i) {
            render_certify_suite(spec.suites[i], i, per_suite[i], out);
        }
        out += "confirmed " + std::to_string(confirmed) + "/" +
               std::to_string(merged.runs.size()) +
               " (paper: every circuit confirmed at exactly its designed count)\n";
        return out;
    }

    const std::vector<std::string> tools = resolved_tool_names(spec);
    std::vector<eval::ratio_cell> all_cells;
    for (std::size_t i = 0; i < spec.suites.size(); ++i) {
        std::vector<eval::run_record> records;
        records.reserve(per_suite[i].size());
        for (const auto& run : per_suite[i]) records.push_back(run.record);
        render_tools_suite(spec.suites[i], i, records, tools, out, all_cells);
    }

    if (spec.suites.size() > 1 && !all_cells.empty()) {
        out += "overall optimality gaps (all suites):\n";
        render_gap_table(all_cells, tools, out);
    }
    return out;
}

}  // namespace qubikos::campaign
