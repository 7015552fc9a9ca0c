#include "campaign/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "tools/registry.hpp"

namespace qubikos::campaign {

namespace {

/// True when the spec uses any schema-v2 feature. v1 specs must keep
/// serializing in the v1 form so their fingerprints (and the stores keyed
/// by them) survive the schema extension.
bool uses_v2_features(const campaign_spec& spec) {
    if (spec.max_attempts != 2 || spec.vf2_check) return true;
    return std::any_of(spec.suites.begin(), spec.suites.end(), [](const campaign_suite& s) {
        return s.family != benchmark_family::qubikos;
    });
}

/// True when any tool entry needs the v3 representation (options or a
/// custom label). Plain-name specs keep the v1/v2 bytes and fingerprints.
bool uses_v3_features(const campaign_spec& spec) {
    return std::any_of(spec.tools.begin(), spec.tools.end(),
                       [](const tool_variant& t) { return !t.plain(); });
}

/// Rejects any key of `v` outside `known`: a misspelled key must fail
/// the load, not run the default under a fingerprint that hides it.
void require_known_keys(const json::value& v, std::initializer_list<std::string_view> known,
                        const std::string& where) {
    if (const std::string* key = json::unknown_key(v.as_object(), known)) {
        throw std::invalid_argument("campaign: unknown key '" + *key + "' in " + where);
    }
}

json::value tool_variant_to_json(const tool_variant& variant) {
    // Plain entries stay bare strings in every schema, so adding one
    // variant to a lineup doesn't reshape the others.
    if (variant.plain()) return json::value(variant.name);
    json::object o;
    o["name"] = variant.name;
    if (!variant.label.empty() && variant.label != variant.name) o["label"] = variant.label;
    if (variant.has_options()) o["options"] = variant.options;
    if (variant.planted) o["initial"] = "planted";
    return json::value(std::move(o));
}

tool_variant tool_variant_from_json(const json::value& v) {
    if (v.type() == json::kind::string) return tool_variant(v.as_string());
    tool_variant variant;
    variant.name = v.at("name").as_string();
    require_known_keys(v, {"initial", "label", "name", "options"},
                       "tool variant '" + variant.name + "'");
    if (v.contains("label")) variant.label = v.at("label").as_string();
    if (v.contains("options")) {
        if (v.at("options").type() != json::kind::object) {
            throw std::invalid_argument("campaign: tool options for '" + variant.name +
                                        "' must be a JSON object");
        }
        variant.options = v.at("options");
    }
    if (v.contains("initial")) {
        if (v.at("initial").type() != json::kind::string ||
            v.at("initial").as_string() != "planted") {
            throw std::invalid_argument("campaign: tool variant '" + variant.name +
                                        "' has initial " + v.at("initial").dump() +
                                        " (the only value is \"planted\")");
        }
        variant.planted = true;
    }
    return variant;
}

/// A planted variant routes from the QUBIKOS generator's optimal initial
/// mapping: queko and quekno instances carry none, and a tool that
/// refines its own placement cannot start from one.
void require_runnable_planted(const campaign_spec& spec) {
    for (const auto& variant : spec.tools) {
        if (!variant.planted) continue;
        if (!tools::tool_registry_info(variant.name).accepts_initial) {
            throw std::invalid_argument("campaign: tool '" + variant.name +
                                        "' places its own qubits and cannot route from the "
                                        "planted mapping");
        }
        for (const auto& suite : spec.suites) {
            if (suite.family != benchmark_family::qubikos) {
                throw std::invalid_argument(
                    std::string("campaign: planted variant '") + variant.display() +
                    "' needs qubikos suites, but suite '" + suite.arch_name + "' is " +
                    family_name(suite.family));
            }
        }
    }
}

json::value suite_spec_to_json(const campaign_suite& spec, bool v2) {
    json::object o;
    o["arch"] = spec.arch_name;
    json::array counts;
    for (const int c : spec.swap_counts) counts.push_back(c);
    o["swap_counts"] = std::move(counts);
    o["circuits_per_count"] = spec.circuits_per_count;
    o["total_two_qubit_gates"] = spec.total_two_qubit_gates;
    o["single_qubit_rate"] = spec.single_qubit_rate;
    o["base_seed"] = static_cast<std::int64_t>(spec.base_seed);
    if (v2) {
        o["family"] = family_name(spec.family);
        // Family knobs only where they mean something, so the canonical
        // form does not depend on stale values of the other family.
        if (spec.family == benchmark_family::queko) o["queko_density"] = spec.queko_density;
        if (spec.family == benchmark_family::quekno) {
            o["quekno_gates_per_epoch"] = spec.quekno_gates_per_epoch;
        }
    }
    return json::value(std::move(o));
}

campaign_suite suite_spec_from_json(const json::value& v) {
    campaign_suite spec;
    spec.arch_name = v.at("arch").as_string();
    const std::string where = "suite '" + spec.arch_name + "'";
    require_known_keys(v,
                       {"arch", "base_seed", "circuits_per_count", "family", "queko_density",
                        "quekno_gates_per_epoch", "single_qubit_rate", "swap_counts",
                        "total_two_qubit_gates"},
                       where);
    if (v.contains("family")) spec.family = family_from_name(v.at("family").as_string());
    // A family knob only on a suite of its family: the writer drops it
    // elsewhere, so accepting it would hide it from the fingerprint.
    for (const auto& [knob, family] : {std::pair{"queko_density", benchmark_family::queko},
                                       std::pair{"quekno_gates_per_epoch",
                                                 benchmark_family::quekno}}) {
        if (v.contains(knob) && spec.family != family) {
            throw std::invalid_argument("campaign: key '" + std::string(knob) + "' in " + where +
                                        ", which is not a " + family_name(family) + " suite");
        }
    }
    for (const auto& c : v.at("swap_counts").as_array()) spec.swap_counts.push_back(c.as_int());
    spec.circuits_per_count = v.at("circuits_per_count").as_int();
    spec.total_two_qubit_gates =
        static_cast<std::size_t>(v.at("total_two_qubit_gates").as_number());
    spec.single_qubit_rate = v.at("single_qubit_rate").as_number();
    spec.base_seed = static_cast<std::uint64_t>(v.at("base_seed").as_number());
    if (v.contains("queko_density")) spec.queko_density = v.at("queko_density").as_number();
    if (v.contains("quekno_gates_per_epoch")) {
        spec.quekno_gates_per_epoch = v.at("quekno_gates_per_epoch").as_int();
    }
    return spec;
}

}  // namespace

const char* mode_name(campaign_mode mode) {
    return mode == campaign_mode::tools ? "tools" : "certify";
}

campaign_mode mode_from_name(const std::string& name) {
    if (name == "tools") return campaign_mode::tools;
    if (name == "certify") return campaign_mode::certify;
    throw std::invalid_argument("campaign: unknown mode '" + name + "' (tools|certify)");
}

const char* family_name(benchmark_family family) {
    switch (family) {
        case benchmark_family::qubikos: return "qubikos";
        case benchmark_family::queko: return "queko";
        case benchmark_family::quekno: return "quekno";
    }
    return "qubikos";
}

benchmark_family family_from_name(const std::string& name) {
    if (name == "qubikos") return benchmark_family::qubikos;
    if (name == "queko") return benchmark_family::queko;
    if (name == "quekno") return benchmark_family::quekno;
    throw std::invalid_argument("campaign: unknown family '" + name +
                                "' (qubikos|queko|quekno)");
}

json::value spec_to_json(const campaign_spec& spec) {
    const bool v2 = uses_v2_features(spec);
    const bool v3 = uses_v3_features(spec);
    json::object o;
    o["schema"] = v3   ? "qubikos.campaign_spec.v3"
                  : v2 ? "qubikos.campaign_spec.v2"
                       : "qubikos.campaign_spec.v1";
    o["name"] = spec.name;
    o["mode"] = mode_name(spec.mode);
    json::array suites;
    for (const auto& s : spec.suites) suites.push_back(suite_spec_to_json(s, v2));
    o["suites"] = std::move(suites);
    json::array tools;
    for (const auto& t : spec.tools) tools.push_back(tool_variant_to_json(t));
    o["tools"] = std::move(tools);
    o["sabre_trials"] = spec.sabre_trials;
    o["toolbox_seed"] = static_cast<std::int64_t>(spec.toolbox_seed);
    o["conflict_limit"] = static_cast<std::int64_t>(spec.conflict_limit);
    if (v2) {
        o["max_attempts"] = spec.max_attempts;
        o["vf2_check"] = spec.vf2_check;
    }
    return json::value(std::move(o));
}

campaign_spec spec_from_json(const json::value& v) {
    const std::string schema = v.at("schema").as_string();
    if (schema != "qubikos.campaign_spec.v1" && schema != "qubikos.campaign_spec.v2" &&
        schema != "qubikos.campaign_spec.v3") {
        throw std::invalid_argument("campaign: unsupported spec schema '" + schema + "'");
    }
    require_known_keys(v,
                       {"conflict_limit", "max_attempts", "mode", "name", "sabre_trials",
                        "schema", "suites", "tools", "toolbox_seed", "vf2_check"},
                       "the spec");
    campaign_spec spec;
    spec.name = v.at("name").as_string();
    spec.mode = mode_from_name(v.at("mode").as_string());
    for (const auto& s : v.at("suites").as_array()) spec.suites.push_back(suite_spec_from_json(s));
    for (const auto& t : v.at("tools").as_array()) {
        spec.tools.push_back(tool_variant_from_json(t));
    }
    spec.sabre_trials = v.at("sabre_trials").as_int();
    spec.toolbox_seed = static_cast<std::uint64_t>(v.at("toolbox_seed").as_number());
    spec.conflict_limit = static_cast<std::uint64_t>(v.at("conflict_limit").as_number());
    if (v.contains("max_attempts")) spec.max_attempts = v.at("max_attempts").as_int();
    if (v.contains("vf2_check")) spec.vf2_check = v.at("vf2_check").as_bool();
    if (spec.max_attempts < 1) {
        throw std::invalid_argument("campaign: max_attempts must be >= 1");
    }
    require_runnable_planted(spec);
    return spec;
}

campaign_spec load_spec(const std::string& path) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("campaign: cannot read spec file " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    return spec_from_json(json::parse(buffer.str()));
}

void save_spec(const campaign_spec& spec, const std::string& path) {
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    std::ofstream file(path);
    if (!file) throw std::runtime_error("campaign: cannot write spec file " + path);
    file << spec_to_json(spec).dump(2) << "\n";
    if (!file.good()) throw std::runtime_error("campaign: write failed for " + path);
}

std::string spec_fingerprint(const campaign_spec& spec) {
    const std::string canonical = spec_to_json(spec).dump();
    std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit
    for (const char c : canonical) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
    return buf;
}

std::vector<std::string> resolved_tool_names(const campaign_spec& spec) {
    if (spec.mode == campaign_mode::certify) return {"exact"};
    std::vector<std::string> labels;
    std::unordered_set<std::string> seen;
    for (const auto& variant : resolved_tool_variants(spec)) {
        labels.push_back(variant.display());
        if (!seen.insert(labels.back()).second) {
            throw std::invalid_argument("campaign: duplicate tool label '" + labels.back() +
                                        "' (give variants distinct labels)");
        }
    }
    return labels;
}

std::vector<tool_variant> resolved_tool_variants(const campaign_spec& spec) {
    if (spec.mode == campaign_mode::certify) {
        throw std::logic_error("campaign: certify mode has no registry tool variants");
    }
    std::vector<tool_variant> variants;
    if (spec.tools.empty()) {
        for (const auto& name : tools::paper_tool_names()) variants.emplace_back(name);
    } else {
        variants = spec.tools;
    }
    for (const auto& variant : variants) {
        // Registry lookup throws on unknown names; option keys/types are
        // validated too, so a bad spec dies at plan time, not mid-shard.
        (void)tools::resolve_options(tools::tool_registry_info(variant.name), variant.options);
    }
    require_runnable_planted(spec);
    return variants;
}

campaign_spec example_spec() {
    campaign_spec spec;
    spec.name = "mini";
    spec.sabre_trials = 4;
    core::suite_spec aspen;
    aspen.arch_name = "aspen4";
    aspen.swap_counts = {2, 3};
    aspen.circuits_per_count = 2;
    aspen.total_two_qubit_gates = 40;
    aspen.base_seed = 7;
    spec.suites.push_back(aspen);
    core::suite_spec grid;
    grid.arch_name = "grid3x3";
    grid.swap_counts = {2, 3};
    grid.circuits_per_count = 2;
    grid.total_two_qubit_gates = 30;
    grid.base_seed = 11;
    spec.suites.push_back(grid);
    return spec;
}

}  // namespace qubikos::campaign
