#include "tools/registry.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "tools/builtin.hpp"
#include "util/table.hpp"

namespace qubikos::tools {

namespace {

struct registry_entry {
    tool_info info;
    tool_factory factory;
};

struct registry_state {
    std::mutex mutex;
    /// deque: references to entries stay valid across later
    /// registrations (tool_registry_info hands them out).
    std::deque<registry_entry> entries;

    registry_entry* find(const std::string& name) {
        for (auto& entry : entries) {
            if (entry.info.name == name) return &entry;
        }
        return nullptr;
    }
};

registry_state& raw_state() {
    static registry_state instance;
    return instance;
}

/// True on the thread currently executing the builtin-registration pass:
/// its register_tool calls must write to raw_state() directly instead of
/// re-entering state()'s call_once (which would deadlock).
thread_local bool registering_builtins = false;

/// The process-wide registry. Builtins register on first access — from
/// queries AND from public register_tool, so an early external
/// registration can never claim a builtin name — via a dedicated unit
/// per router (static initializers in a static library would be dropped
/// for unreferenced objects, so registration is pulled, not pushed).
registry_state& state() {
    static std::once_flag builtins_once;
    std::call_once(builtins_once, [] {
        registering_builtins = true;
        detail::register_builtin_lightsabre();
        detail::register_builtin_mlqls();
        detail::register_builtin_qmap();
        detail::register_builtin_tket();
        registering_builtins = false;
    });
    return raw_state();
}

bool value_has_kind(const json::value& v, option_kind kind) {
    switch (kind) {
        case option_kind::boolean: return v.type() == json::kind::boolean;
        case option_kind::real: return v.type() == json::kind::number;
        case option_kind::integer:
            return v.type() == json::kind::number &&
                   v.as_number() == std::floor(v.as_number());
    }
    return false;
}

/// Shortest decimal literal that round-trips `d` — labels like
/// "sabre:lookahead_decay=0.9" must not read "0.90000000000000002".
std::string number_literal(double d) {
    if (d == std::floor(d) && std::abs(d) < 1e15) {
        return std::to_string(static_cast<long long>(d));
    }
    char buf[32];
    for (int precision = 6; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, d);
        if (std::strtod(buf, nullptr) == d) break;
    }
    return buf;
}

std::string value_literal(const json::value& v) {
    switch (v.type()) {
        case json::kind::boolean: return v.as_bool() ? "true" : "false";
        case json::kind::number: return number_literal(v.as_number());
        default: return v.dump();
    }
}

/// Caller holds reg.mutex.
std::string known_tool_names_line(const registry_state& reg) {
    std::string line;
    for (const auto& entry : reg.entries) {
        if (!line.empty()) line += "|";
        line += entry.info.name;
    }
    return line;
}

/// Parses one "key=value" override, typed by the schema.
json::value parse_option_value(const tool_info& info, const option_spec& spec,
                               const std::string& text) {
    const auto fail = [&](const char* expected) {
        throw std::invalid_argument("tools: option '" + spec.key + "' of '" + info.name +
                                    "' expects " + expected + ", got '" + text + "'");
    };
    if (spec.kind == option_kind::boolean) {
        if (text == "true" || text == "1") return json::value(true);
        if (text == "false" || text == "0") return json::value(false);
        fail("a boolean (true|false|1|0)");
    }
    char* end = nullptr;
    if (spec.kind == option_kind::integer) {
        errno = 0;
        const long long parsed = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE) fail("an integer");
        return json::value(static_cast<std::int64_t>(parsed));
    }
    errno = 0;
    const double parsed = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE) fail("a number");
    return json::value(parsed);
}

}  // namespace

const char* option_kind_name(option_kind kind) {
    switch (kind) {
        case option_kind::integer: return "int";
        case option_kind::real: return "real";
        case option_kind::boolean: return "bool";
    }
    return "?";
}

const option_spec* tool_info::find_option(const std::string& key) const {
    for (const auto& option : options) {
        if (option.key == key) return &option;
    }
    return nullptr;
}

void register_tool(tool_info info, tool_factory factory) {
    if (info.name.empty()) throw std::invalid_argument("tools: tool name must be nonempty");
    if (factory == nullptr) {
        throw std::invalid_argument("tools: tool '" + info.name + "' has no factory");
    }
    for (const auto& option : info.options) {
        if (!value_has_kind(option.default_value, option.kind)) {
            throw std::invalid_argument("tools: default for option '" + option.key + "' of '" +
                                        info.name + "' does not match its declared " +
                                        option_kind_name(option.kind) + " kind");
        }
        if (option.kind != option_kind::boolean &&
            (option.default_value.as_number() < option.minimum ||
             option.default_value.as_number() > option.maximum)) {
            throw std::invalid_argument("tools: default for option '" + option.key + "' of '" +
                                        info.name + "' is outside its own [minimum, maximum]");
        }
    }
    auto& reg = registering_builtins ? raw_state() : state();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.find(info.name) != nullptr) {
        throw std::invalid_argument("tools: tool '" + info.name + "' is already registered");
    }
    reg.entries.push_back({std::move(info), std::move(factory)});
}

std::vector<std::string> registered_tool_names() {
    auto& reg = state();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<std::string> names;
    names.reserve(reg.entries.size());
    for (const auto& entry : reg.entries) names.push_back(entry.info.name);
    return names;
}

bool is_registered_tool(const std::string& name) {
    auto& reg = state();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.find(name) != nullptr;
}

const tool_info& tool_registry_info(const std::string& name) {
    auto& reg = state();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    const registry_entry* entry = reg.find(name);
    if (entry == nullptr) {
        throw std::invalid_argument("tools: unknown tool '" + name + "' (" +
                                    known_tool_names_line(reg) + ")");
    }
    // Entries are never removed or reordered, so the reference is stable.
    return entry->info;
}

const std::vector<std::string>& paper_tool_names() {
    static const std::vector<std::string> names = {"lightsabre", "mlqls", "qmap", "tket"};
    return names;
}

json::value resolve_options(const tool_info& info, const json::value& overrides) {
    json::object resolved;
    for (const auto& option : info.options) resolved[option.key] = option.default_value;
    if (!overrides.is_null()) {
        if (overrides.type() != json::kind::object) {
            throw std::invalid_argument("tools: options for '" + info.name +
                                        "' must be a JSON object");
        }
        for (const auto& [key, value] : overrides.as_object()) {
            const option_spec* spec = info.find_option(key);
            if (spec == nullptr) {
                throw std::invalid_argument(
                    "tools: unknown option '" + key + "' for tool '" + info.name +
                    "' (see `qubikos_cli tools describe " + info.name + "`)");
            }
            if (!value_has_kind(value, spec->kind)) {
                throw std::invalid_argument("tools: option '" + key + "' of '" + info.name +
                                            "' expects a " + option_kind_name(spec->kind) +
                                            " value, got " + value.dump());
            }
            if (spec->kind != option_kind::boolean &&
                (value.as_number() < spec->minimum || value.as_number() > spec->maximum)) {
                throw std::invalid_argument(
                    "tools: option '" + key + "' of '" + info.name + "' must be in [" +
                    number_literal(spec->minimum) + ", " + number_literal(spec->maximum) +
                    "], got " + value.dump());
            }
            resolved[key] = value;
        }
    }
    return json::value(std::move(resolved));
}

eval::tool make_tool(const std::string& name, const json::value& overrides,
                     std::shared_ptr<const routing_context> context) {
    tool_factory factory;
    json::value resolved;
    {
        auto& reg = state();
        const std::lock_guard<std::mutex> lock(reg.mutex);
        const registry_entry* entry = reg.find(name);
        if (entry == nullptr) {
            throw std::invalid_argument("tools: unknown tool '" + name + "' (" +
                                        known_tool_names_line(reg) + ")");
        }
        factory = entry->factory;
        resolved = resolve_options(entry->info, overrides);
    }
    const auto run = [route = factory(resolved), context = std::move(context)](
                         const circuit& c, const graph& g, obs::snapshot* stats) {
        if (context != nullptr && context->matches(g)) {
            return route(c, g, context->distances(), stats);
        }
        const distance_provider dist(g);
        return route(c, g, dist, stats);
    };
    return {name, [run](const circuit& c, const graph& g) { return run(c, g, nullptr); },
            [run](const circuit& c, const graph& g, obs::snapshot& stats) {
                return run(c, g, &stats);
            }};
}

std::string tool_selection::canonical() const {
    if (options.is_null() || options.as_object().empty()) return name;
    std::string out = name + ":";
    bool first = true;
    for (const auto& [key, value] : options.as_object()) {
        if (!first) out += ",";
        first = false;
        out += key + "=" + value_literal(value);
    }
    return out;
}

tool_selection parse_tool_spec(const std::string& text) {
    tool_selection selection;
    const std::size_t colon = text.find(':');
    selection.name = text.substr(0, colon);
    const tool_info& info = tool_registry_info(selection.name);  // throws on unknown
    if (colon == std::string::npos) return selection;

    json::object overrides;
    std::size_t pos = colon + 1;
    while (pos <= text.size()) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const std::string pair = text.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (pair.empty() || eq == std::string::npos || eq == 0) {
            throw std::invalid_argument("tools: bad option '" + pair + "' in '" + text +
                                        "' (expected name[:key=val,...])");
        }
        const std::string key = pair.substr(0, eq);
        const option_spec* spec = info.find_option(key);
        if (spec == nullptr) {
            throw std::invalid_argument("tools: unknown option '" + key + "' for tool '" +
                                        info.name + "' (see `qubikos_cli tools describe " +
                                        info.name + "`)");
        }
        if (overrides.find(key) != overrides.end()) {
            throw std::invalid_argument("tools: option '" + key + "' given twice in '" + text +
                                        "'");
        }
        overrides[key] = parse_option_value(info, *spec, pair.substr(eq + 1));
        pos = comma + 1;
    }
    selection.options = json::value(std::move(overrides));
    return selection;
}

std::string describe_tool(const std::string& name) {
    const tool_info& info = tool_registry_info(name);
    std::string out = "tool " + info.name + ": " + info.doc + "\n";
    if (info.options.empty()) {
        out += "  (no options)\n";
        return out;
    }
    ascii_table table({"option", "type", "default", "doc"});
    for (const auto& option : info.options) {
        table.add(option.key, option_kind_name(option.kind),
                  value_literal(option.default_value), option.doc);
    }
    out += table.str();
    return out;
}

json::value tool_info_to_json(const tool_info& info) {
    json::array options;
    for (const auto& option : info.options) {
        json::object o;
        o["default"] = option.default_value;
        o["doc"] = option.doc;
        o["key"] = option.key;
        o["kind"] = option_kind_name(option.kind);
        if (option.kind != option_kind::boolean) {
            o["maximum"] = option.maximum;
            o["minimum"] = option.minimum;
        }
        options.push_back(json::value(std::move(o)));
    }
    json::object tool;
    tool["doc"] = info.doc;
    tool["name"] = info.name;
    tool["options"] = json::value(std::move(options));
    return json::value(std::move(tool));
}

json::value registry_to_json() {
    json::array tools;
    for (const auto& name : registered_tool_names()) {
        tools.push_back(tool_info_to_json(tool_registry_info(name)));
    }
    json::object doc;
    doc["schema"] = "qubikos.tools.v1";
    doc["tools"] = json::value(std::move(tools));
    return json::value(std::move(doc));
}

std::string render_tool_table() {
    ascii_table table({"tool", "options", "doc"});
    for (const auto& name : registered_tool_names()) {
        const tool_info& info = tool_registry_info(name);
        table.add(info.name, info.options.size(), info.doc);
    }
    return table.str();
}

}  // namespace qubikos::tools
