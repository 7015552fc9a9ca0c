#include "campaign/status.hpp"

#include <stdexcept>

#include "util/table.hpp"

namespace qubikos::campaign {

namespace {

enum class unit_state { done, retryable, quarantined, pending };

unit_state classify(const unit_status& status, int max_attempts) {
    if (status.succeeded) return unit_state::done;
    if (status.failed_attempts == 0) return unit_state::pending;
    return status.failed_attempts >= max_attempts ? unit_state::quarantined
                                                  : unit_state::retryable;
}

void count(status_counts& counts, unit_state state) {
    switch (state) {
        case unit_state::done: ++counts.done; break;
        case unit_state::retryable: ++counts.retryable; break;
        case unit_state::quarantined: ++counts.quarantined; break;
        case unit_state::pending: ++counts.pending; break;
    }
}

std::string counts_line(const status_counts& c) {
    return std::to_string(c.done) + " done, " + std::to_string(c.retryable) + " retryable, " +
           std::to_string(c.quarantined) + " quarantined, " + std::to_string(c.pending) +
           " pending";
}

}  // namespace

campaign_status probe_status(const campaign_plan& plan, const std::vector<stored_run>& runs,
                             const status_options& options) {
    if (options.num_shards < 1) {
        throw std::invalid_argument("campaign: status num_shards must be >= 1");
    }
    const int max_attempts = plan.spec.max_attempts < 1 ? 1 : plan.spec.max_attempts;
    const auto statuses = unit_statuses(runs);

    campaign_status status;
    status.shards.resize(static_cast<std::size_t>(options.num_shards));
    for (std::size_t index = 0; index < plan.units.size(); ++index) {
        const work_unit& unit = plan.units[index];
        unit_status per_unit;
        const auto it = statuses.find(unit.id);
        if (it != statuses.end()) per_unit = it->second;
        const unit_state state = classify(per_unit, max_attempts);
        count(status.totals, state);
        count(status.shards[index % status.shards.size()], state);
        count(status.cells[{unit.suite_index, unit.tool}], state);
        if (state == unit_state::quarantined) {
            status.quarantined_units.push_back(
                {unit.id, per_unit.failed_attempts, per_unit.last_error});
        }
    }
    return status;
}

std::string render_status(const campaign_plan& plan, const campaign_status& status) {
    const campaign_spec& spec = plan.spec;
    const int max_attempts = spec.max_attempts < 1 ? 1 : spec.max_attempts;

    std::string out;
    out += "campaign status: " + spec.name + " (mode " + mode_name(spec.mode) +
           ", fingerprint " + spec_fingerprint(spec) + ")\n";
    out += "units: " + counts_line(status.totals) + ", of " +
           std::to_string(status.totals.total()) + " total\n";

    if (status.shards.size() > 1) {
        out += "shards (" + std::to_string(status.shards.size()) + "):\n";
        for (std::size_t shard = 0; shard < status.shards.size(); ++shard) {
            const auto& c = status.shards[shard];
            out += "  shard " + std::to_string(shard) + "/" +
                   std::to_string(status.shards.size()) + ": " + counts_line(c) + "  (" +
                   std::to_string(c.total()) + " assigned)\n";
        }
    }

    ascii_table table({"suite", "tool", "done", "retryable", "quarantined", "pending"});
    for (const auto& [key, c] : status.cells) {
        const campaign_suite& suite = spec.suites[key.first];
        std::string label = std::to_string(key.first) + ":" + suite.arch_name;
        if (suite.family != benchmark_family::qubikos) {
            label += std::string(":") + family_name(suite.family);
        }
        table.add(label, key.second, std::to_string(c.done) + "/" + std::to_string(c.total()),
                  c.retryable, c.quarantined, c.pending);
    }
    out += table.str();

    if (!status.quarantined_units.empty()) {
        out += "quarantined units (attempt budget " + std::to_string(max_attempts) +
               " exhausted; re-open with `campaign run --retry-quarantined`):\n";
        constexpr std::size_t limit = 10;
        for (std::size_t i = 0; i < status.quarantined_units.size() && i < limit; ++i) {
            const auto& q = status.quarantined_units[i];
            out += "  " + q.unit_id + " (attempts " + std::to_string(q.attempts) + "): " +
                   q.error + "\n";
        }
        if (status.quarantined_units.size() > limit) {
            out += "  ... and " + std::to_string(status.quarantined_units.size() - limit) +
                   " more\n";
        }
    }
    return out;
}

json::value status_to_json(const campaign_plan& plan, const campaign_status& status) {
    const campaign_spec& spec = plan.spec;
    const auto counts_json = [](const status_counts& c) {
        json::object o;
        o["done"] = c.done;
        o["pending"] = c.pending;
        o["quarantined"] = c.quarantined;
        o["retryable"] = c.retryable;
        o["total"] = c.total();
        return json::value(std::move(o));
    };

    json::object doc;
    doc["campaign"] = spec.name;
    doc["complete"] = status.complete();
    doc["fingerprint"] = spec_fingerprint(spec);
    doc["mode"] = mode_name(spec.mode);
    doc["totals"] = counts_json(status.totals);

    json::array shards;
    for (std::size_t shard = 0; shard < status.shards.size(); ++shard) {
        json::object entry;
        entry["counts"] = counts_json(status.shards[shard]);
        entry["shard"] = shard;
        shards.push_back(json::value(std::move(entry)));
    }
    doc["shards"] = json::value(std::move(shards));

    json::array cells;
    for (const auto& [key, c] : status.cells) {
        const campaign_suite& suite = spec.suites[key.first];
        json::object cell;
        cell["arch"] = suite.arch_name;
        cell["counts"] = counts_json(c);
        cell["family"] = family_name(suite.family);
        cell["suite"] = key.first;
        cell["tool"] = key.second;
        cells.push_back(json::value(std::move(cell)));
    }
    doc["cells"] = json::value(std::move(cells));

    json::array quarantined;
    for (const auto& q : status.quarantined_units) {
        json::object entry;
        entry["attempts"] = q.attempts;
        entry["error"] = q.error;
        entry["unit_id"] = q.unit_id;
        quarantined.push_back(json::value(std::move(entry)));
    }
    doc["quarantined_units"] = json::value(std::move(quarantined));

    return json::value(std::move(doc));
}

}  // namespace qubikos::campaign
