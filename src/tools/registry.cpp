#include "tools/registry.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "tools/builtin.hpp"
#include "util/table.hpp"

namespace qubikos::tools {

namespace {

using detail::tool_entry;
using detail::tool_table;

const tool_entry* find_tool(const std::string& name) {
    for (const auto& entry : tool_table()) {
        if (entry.info.name == name) return &entry;
    }
    return nullptr;
}

const tool_entry& tool_entry_or_throw(const std::string& name) {
    const tool_entry* entry = find_tool(name);
    if (entry == nullptr) {
        std::string known;
        for (const auto& e : tool_table()) known += (known.empty() ? "" : "|") + e.info.name;
        throw std::invalid_argument("tools: unknown tool '" + name + "' (" + known + ")");
    }
    return *entry;
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

const option_spec& option_or_throw(const tool_info& info, const std::string& key) {
    const option_spec* spec = info.find_option(key);
    if (spec == nullptr) {
        throw std::invalid_argument("tools: unknown option '" + key + "' for tool '" + info.name +
                                    "' (see `qubikos_cli tools describe " + info.name + "`)");
    }
    return *spec;
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
    if (end == text.c_str() || *end != '\0' || errno == ERANGE || !std::isfinite(parsed)) {
        fail("a finite number");
    }
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

std::vector<std::string> registered_tool_names() {
    std::vector<std::string> names;
    for (const auto& entry : tool_table()) names.push_back(entry.info.name);
    return names;
}

bool is_registered_tool(const std::string& name) { return find_tool(name) != nullptr; }

const tool_info& tool_registry_info(const std::string& name) {
    return tool_entry_or_throw(name).info;
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
            const option_spec& spec = option_or_throw(info, key);
            if (!value_has_kind(value, spec.kind)) {
                throw std::invalid_argument("tools: option '" + key + "' of '" + info.name +
                                            "' expects a " + option_kind_name(spec.kind) +
                                            " value, got " + value_literal(value));
            }
            // Written so that NaN fails too.
            if (spec.kind != option_kind::boolean &&
                !(value.as_number() >= spec.minimum && value.as_number() <= spec.maximum)) {
                throw std::invalid_argument(
                    "tools: option '" + key + "' of '" + info.name + "' must be in [" +
                    number_literal(spec.minimum) + ", " + number_literal(spec.maximum) +
                    "], got " + value_literal(value));
            }
            resolved[key] = value;
        }
    }
    return json::value(std::move(resolved));
}

eval::tool make_tool(const std::string& name, const json::value& overrides,
                     std::shared_ptr<const routing_context> context) {
    const tool_entry& entry = tool_entry_or_throw(name);
    const auto route = [bound = entry.bind(resolve_options(entry.info, overrides)),
                        context = std::move(context)](const circuit& c, const graph& g,
                                                      const mapping* initial,
                                                      obs::snapshot* stats) {
        if (context != nullptr && context->matches(g)) {
            return bound(c, g, context->distances(), initial, stats);
        }
        const distance_provider dist(g);
        return bound(c, g, dist, initial, stats);
    };
    return {name, route,
            [route](const circuit& c, const graph& g) { return route(c, g, nullptr, nullptr); },
            [route](const circuit& c, const graph& g, obs::snapshot& stats) {
                return route(c, g, nullptr, &stats);
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
        const option_spec& spec = option_or_throw(info, key);
        if (overrides.find(key) != overrides.end()) {
            throw std::invalid_argument("tools: option '" + key + "' given twice in '" + text +
                                        "'");
        }
        overrides[key] = parse_option_value(info, spec, pair.substr(eq + 1));
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
    for (const auto& entry : tool_table()) tools.push_back(tool_info_to_json(entry.info));
    json::object doc;
    doc["schema"] = "qubikos.tools.v1";
    doc["tools"] = json::value(std::move(tools));
    return json::value(std::move(doc));
}

std::string render_tool_table() {
    ascii_table table({"tool", "options", "doc"});
    for (const auto& entry : tool_table()) {
        table.add(entry.info.name, entry.info.options.size(), entry.info.doc);
    }
    return table.str();
}

}  // namespace qubikos::tools
