#include "campaign/profile.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/table.hpp"

namespace qubikos::campaign {

namespace {

/// Aggregate of one (suite, tool) cell: how many units contributed a
/// sidecar, and the summed counters (integer sums, so deterministic for
/// a fixed store).
struct cell_profile {
    std::size_t units = 0;
    std::map<std::string, std::uint64_t> totals;
};

}  // namespace

std::string render_profile(const campaign_plan& plan, const std::vector<stored_run>& runs) {
    const campaign_spec& spec = plan.spec;

    std::unordered_map<std::string, std::pair<std::size_t, std::string>> cell_of;
    cell_of.reserve(plan.units.size());
    for (const auto& unit : plan.units) {
        cell_of.emplace(unit.id, std::make_pair(unit.suite_index, unit.tool));
    }

    // First pass: find each unit's first sidecar (workers write one per
    // successful unit; overlapping stores may repeat it — first wins,
    // matching merge).
    std::unordered_map<std::string, const stored_run*> sidecar_of;
    std::size_t completed = 0;
    for (const auto& run : runs) {
        if (run.is_metrics()) {
            if (cell_of.find(run.unit_id) != cell_of.end()) {
                sidecar_of.emplace(run.unit_id, &run);
            }
        } else if (!run.failed()) {
            ++completed;
        }
    }

    // Aggregate in plan order.
    std::map<std::pair<std::size_t, std::string>, cell_profile> cells;
    std::size_t profiled = 0;
    for (const auto& unit : plan.units) {
        const auto it = sidecar_of.find(unit.id);
        if (it == sidecar_of.end()) continue;
        ++profiled;
        cell_profile& cell = cells[{unit.suite_index, unit.tool}];
        ++cell.units;
        for (const auto& [name, n] : it->second->metrics) cell.totals[name] += n;
    }

    std::string out;
    out += "campaign profile: " + spec.name + " (mode " + mode_name(spec.mode) +
           ", fingerprint " + spec_fingerprint(spec) + ")\n";
    out += "profiled units: " + std::to_string(profiled) + " of " + std::to_string(completed) +
           " completed (" + std::to_string(plan.units.size()) + " planned)\n";
    if (profiled == 0) {
        out += "no metrics records in this store; run the campaign with "
               "QUBIKOS_OBS=metrics to record per-unit telemetry\n";
        return out;
    }

    for (const auto& [key, cell] : cells) {
        const campaign_suite& suite = spec.suites[key.first];
        std::string label = std::to_string(key.first) + ":" + suite.arch_name;
        if (suite.family != benchmark_family::qubikos) {
            label += std::string(":") + family_name(suite.family);
        }
        out += "suite " + label + "  tool " + key.second + "  (" +
               std::to_string(cell.units) + " units)\n";
        ascii_table table({"metric", "total", "per unit"});
        for (const auto& [name, total] : cell.totals) {
            const double per_unit = static_cast<double>(total) / static_cast<double>(cell.units);
            table.add(name, std::to_string(total), ascii_table::num(per_unit, 1));
        }
        out += table.str();
    }
    return out;
}

}  // namespace qubikos::campaign
