// Self-describing tool registry: the single catalog of QLS tools.
//
// The paper's experiment grid is (tool x benchmark). Each tool is one
// entry of a fixed table (src/tools/builtin.cpp) with a name, a doc line,
// a typed option schema whose rows name the options-struct fields they
// set, and one route function; every consumer selects tools by name +
// option overrides:
//
//   campaign spec v3             -> {"name": "lightsabre", "options": {...}}
//   qubikos_cli tools list       -> the registry table
//   qubikos_cli route / --tool   -> parse_tool_spec("name:key=val,...")
//   serve, benches               -> make_tool(name, overrides, context)
//
// Option validation is loud: an unknown tool name, an unknown option key
// or an ill-typed, non-finite or out-of-range value throws immediately
// (never a silent default) — a misspelled knob that quietly ran the
// default configuration would poison a whole campaign's tables.
//
// The table is built once on first use and never changes, so lookups
// (make_tool included) take no lock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/harness.hpp"
#include "tools/context.hpp"
#include "util/json.hpp"

namespace qubikos::tools {

enum class option_kind { integer, real };

[[nodiscard]] const char* option_kind_name(option_kind kind);

/// One typed knob of a tool's schema. `default_value` matches `kind`
/// (integer <-> integral number, real <-> number). Values outside
/// [minimum, maximum] are rejected at resolve time; the defaults
/// (non-negative, capped at int32 max) make the table's int/size_t
/// casts well-defined without per-tool checks. Widen explicitly where a
/// knob needs more (e.g. 64-bit seeds).
struct option_spec {
    std::string key;
    option_kind kind = option_kind::integer;
    json::value default_value;
    std::string doc;
    double minimum = 0.0;
    double maximum = 2147483647.0;  // INT32_MAX
};

/// Exactly representable in double and in uint64 — the widest range a
/// JSON-carried seed can survive unclamped.
inline constexpr double max_seed_option = 9007199254740992.0;  // 2^53

/// A tool's self-description.
struct tool_info {
    std::string name;
    std::string doc;
    std::vector<option_spec> options;
    /// False for a tool that refines its own placement (mlqls): routing
    /// it from a given initial mapping throws std::invalid_argument, and
    /// a campaign variant may not ask for the planted one.
    bool accepts_initial = true;

    /// nullptr when the key is not in the schema.
    [[nodiscard]] const option_spec* find_option(const std::string& key) const;
};

/// All tool names, in table order.
[[nodiscard]] std::vector<std::string> registered_tool_names();

[[nodiscard]] bool is_registered_tool(const std::string& name);

/// Self-description of a tool; throws on unknown names with the known
/// lineup in the message.
[[nodiscard]] const tool_info& tool_registry_info(const std::string& name);

/// The paper's four-tool lineup (lightsabre, mlqls, qmap, tket) in table
/// order — the default tool axis of specs, reports and benches.
[[nodiscard]] const std::vector<std::string>& paper_tool_names();

/// Validates `overrides` (an object, or null for none) against the schema
/// and folds it over the defaults into a complete option object. Unknown
/// keys and ill-typed values throw std::invalid_argument.
[[nodiscard]] json::value resolve_options(const tool_info& info, const json::value& overrides);

/// Looks a tool up, resolves its options and builds it. The returned
/// tool's name is the registry name; callers running several variants of
/// one tool relabel it (eval::tool::name is plain data). The tool routes
/// with `context`'s distances when handed the context's graph and builds
/// its own otherwise (including when `context` is null), so sharing a
/// context is purely an optimization.
[[nodiscard]] eval::tool make_tool(const std::string& name, const json::value& overrides = {},
                                   std::shared_ptr<const routing_context> context = nullptr);

/// A parsed tool selection: registry name + option overrides.
struct tool_selection {
    std::string name;
    /// Object of overrides; null when none were given.
    json::value options;

    /// "name" or "name:key=val,..." (keys sorted — json objects are
    /// ordered maps), the default display label of an option-overridden
    /// variant.
    [[nodiscard]] std::string canonical() const;
};

/// Parses the CLI selector syntax "name[:key=val,...]". Values are typed
/// by the schema (integer/real parsed fully); anything else throws
/// std::invalid_argument.
[[nodiscard]] tool_selection parse_tool_spec(const std::string& text);

/// Multi-line human-readable schema description of one tool (the
/// `qubikos_cli tools describe` output; snapshot-pinned by test).
[[nodiscard]] std::string describe_tool(const std::string& name);

/// One tool's self-description as JSON: {"doc", "name", "options":
/// [{"default", "doc", "key", "kind", "maximum", "minimum"}]} with the
/// options in schema order. Machine-readable counterpart of
/// describe_tool for serve clients and `tools describe <tool> --json`.
[[nodiscard]] json::value tool_info_to_json(const tool_info& info);

/// The whole registry as JSON ({"schema": "qubikos.tools.v1", "tools":
/// [...]} in table order) — the `tools describe --json` document
/// and the serve protocol's "tools" op payload. Byte-deterministic for
/// a fixed registry (snapshot-pinned by test).
[[nodiscard]] json::value registry_to_json();

/// One-line-per-tool table of the whole registry (`tools list`).
[[nodiscard]] std::string render_tool_table();

}  // namespace qubikos::tools
