// Campaign specifications: the paper-scale experiment descriptions the
// campaign engine executes (Sec. IV run configurations as data).
//
// A campaign_spec names a set of suites (one per architecture sweep), the
// tools to run on them and the knobs (trial counts, seeds). It is pure
// data with a canonical JSON form, so the same spec file drives
//   qubikos_cli campaign plan | run | merge | report | status
// and every process that touches a campaign — a shard worker on another
// machine, the merger, a resumed run after a crash — can verify it is
// working on the *same* experiment via a stable fingerprint.
//
// Schema v2 adds the benchmark *family* per suite (the paper's contrast
// set: QUBIKOS certified optima vs QUEKO zero-swap / QUEKNO upper-bound
// circuits), fault-handling knobs (max_attempts) and the optional VF2
// solvability probe. A spec that uses none of the v2 features serializes
// in the v1 form byte for byte, so its fingerprint — and therefore every
// existing result store — is preserved.
//
// Schema v3 turns the tool axis into *variants*: a spec entry may name
// any registry tool (tools/registry.hpp) with inline JSON option
// overrides and a display label, so one campaign can compare, say,
// lightsabre at two trial counts against an ablated sabre — without
// recompiling anything. Plain string entries (and empty tools) keep the
// v1/v2 canonical form byte for byte, so every pre-v3 fingerprint and
// store survives. A v3 variant may also carry "initial": "planted": it
// then routes every instance from the generator's planted optimal
// mapping instead of placing the qubits itself — the standalone-router
// test of Sec. IV-C, where any swap above the optimum is the router's
// own. The key is written only when set, so no older spec changes.
//
// The reader is strict: a key the schema does not define — at the top
// level, in a suite or in a variant — is a load error naming it, so a
// misspelled knob can never run the default configuration under a
// fingerprint that hides the typo. A suite's family knob
// (queko_density, quekno_gates_per_epoch) is accepted only on a suite of
// that family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/suite.hpp"
#include "util/json.hpp"

namespace qubikos::campaign {

/// What a work unit does:
///   tools   — run a heuristic QLS tool and record its swap count
///             (the Fig. 4 / Table II experiments);
///   certify — run the family's claim checks (exact solver, VF2,
///             structure) and record whether the claim is confirmed
///             (Sec. IV-A / the benchmark-contrast study).
enum class campaign_mode { tools, certify };

/// Benchmark family of a suite (Sec. I / Sec. III-C contrast set):
///   qubikos — certified optimal SWAP count (this paper);
///   queko   — known-optimal depth, 0 SWAPs, VF2-solvable (Tan & Cong);
///   quekno  — construction cost is an unproven upper bound (Li et al.).
enum class benchmark_family { qubikos, queko, quekno };

/// One suite of a campaign: a core::suite_spec plus the benchmark family
/// and the family-specific generator knobs. The meaning of `swap_counts`
/// follows the family: designed optimal SWAPs (qubikos), circuit depth
/// (queko), construction SWAP transitions = the claimed upper bound
/// (quekno). Implicitly convertible from core::suite_spec (family
/// qubikos), so v1 call sites stay source-compatible.
struct campaign_suite : core::suite_spec {
    campaign_suite() = default;
    campaign_suite(const core::suite_spec& base) : core::suite_spec(base) {}  // NOLINT(*-explicit-*)

    benchmark_family family = benchmark_family::qubikos;
    /// QUEKO: expected fraction of a random matching filled per layer.
    double queko_density = 0.5;
    /// QUEKNO: two-qubit gates emitted per mapping epoch.
    int quekno_gates_per_epoch = 20;
};

/// One tool column of a campaign: a registry tool name, optional inline
/// option overrides (validated against the tool's schema at plan/run
/// time), the label the variant reports under — unit IDs, status and
/// report tables all carry the label, so two variants of one tool stay
/// distinguishable — and whether it routes from the planted mapping.
/// Implicitly convertible from a plain name, so v1/v2 call sites
/// (`spec.tools = {"lightsabre", "tket"}`) stay source-compatible.
struct tool_variant {
    std::string name;
    /// Display label; empty = the name.
    std::string label;
    /// JSON object of option overrides; null = none.
    json::value options;
    /// "initial": "planted" — route from the instance's planted optimal
    /// initial mapping (qubikos suites and tools that accept an initial
    /// mapping only; the spec is rejected otherwise).
    bool planted = false;

    tool_variant() = default;
    tool_variant(std::string tool_name) : name(std::move(tool_name)) {}  // NOLINT(*-explicit-*)
    tool_variant(const char* tool_name) : name(tool_name) {}             // NOLINT(*-explicit-*)
    tool_variant(std::string tool_name, json::value overrides, std::string display_label = "")
        : name(std::move(tool_name)),
          label(std::move(display_label)),
          options(std::move(overrides)) {}

    [[nodiscard]] const std::string& display() const { return label.empty() ? name : label; }
    [[nodiscard]] bool has_options() const {
        return !options.is_null() && !options.as_object().empty();
    }
    /// True when the entry is expressible in the v1/v2 schema (a bare
    /// tool name).
    [[nodiscard]] bool plain() const {
        return !has_options() && !planted && (label.empty() || label == name);
    }
};

struct campaign_spec {
    std::string name = "campaign";
    campaign_mode mode = campaign_mode::tools;
    /// One entry per (architecture, sweep); expanded in order.
    std::vector<campaign_suite> suites;
    /// Tool variants to run (any registry tool); empty = the paper's
    /// four. Ignored in certify mode (the single "exact" pseudo-tool
    /// runs).
    std::vector<tool_variant> tools;
    int sabre_trials = 32;
    std::uint64_t toolbox_seed = 1;
    /// Per-SAT-call conflict budget in certify mode (0 = unlimited).
    std::uint64_t conflict_limit = 0;
    /// Execution attempts a unit gets before it is quarantined (a failing
    /// unit is recorded with an error and retried; once quarantined it is
    /// skipped until a worker runs with retry_quarantined).
    int max_attempts = 2;
    /// Certify mode: also record whether VF2 subgraph monomorphism solves
    /// each instance (the QUEKO-vs-QUBIKOS contrast probe). QUEKO suites
    /// always run it — VF2 solvability *is* their claim.
    bool vf2_check = false;
};

[[nodiscard]] const char* mode_name(campaign_mode mode);
[[nodiscard]] campaign_mode mode_from_name(const std::string& name);

[[nodiscard]] const char* family_name(benchmark_family family);
[[nodiscard]] benchmark_family family_from_name(const std::string& name);

/// Canonical JSON form (round-trips exactly through spec_from_json).
/// Emits the lowest schema the spec's features allow — v1 unless a v2
/// feature is used (non-qubikos family, non-default max_attempts,
/// vf2_check), v3 only when a tool entry carries options, a custom
/// label or the planted initial mapping — so every pre-existing
/// fingerprint is stable.
[[nodiscard]] json::value spec_to_json(const campaign_spec& spec);
/// Accepts the v1, v2 and v3 schemas. Throws std::invalid_argument on a
/// key outside the schema and on a planted variant the spec cannot run.
[[nodiscard]] campaign_spec spec_from_json(const json::value& v);

[[nodiscard]] campaign_spec load_spec(const std::string& path);
void save_spec(const campaign_spec& spec, const std::string& path);

/// Stable 64-bit FNV-1a fingerprint of the canonical JSON form, as a hex
/// string. Two processes agree on a fingerprint iff they run the same
/// experiment; the result store refuses to mix fingerprints.
[[nodiscard]] std::string spec_fingerprint(const campaign_spec& spec);

/// The tool-label column of the plan: spec.tools' display labels
/// (validated against the registry — unknown tool names and duplicate
/// labels throw) or the paper's four when empty; {"exact"} in certify
/// mode.
[[nodiscard]] std::vector<std::string> resolved_tool_names(const campaign_spec& spec);

/// The variants behind resolved_tool_names, in the same order (plain
/// paper entries when spec.tools is empty). Throws in certify mode —
/// the "exact" pseudo-tool is not a registry tool — and on a planted
/// variant of a tool that places itself or in a spec with a queko or
/// quekno suite.
[[nodiscard]] std::vector<tool_variant> resolved_tool_variants(const campaign_spec& spec);

/// A small 2-architecture example spec (also used by the CI
/// mini-campaign): aspen4 + grid3x3, swap counts {2,3}, 2 circuits per
/// count, 40-gate padding, 4 SABRE trials.
[[nodiscard]] campaign_spec example_spec();

}  // namespace qubikos::campaign
