#include "serve/request.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "tools/registry.hpp"

namespace qubikos::serve {

namespace {

/// Requests must stay small enough to echo verbatim in error messages
/// and to bound per-client memory (the payload bound is the server's
/// max_line_bytes; this one is just for the correlation id).
constexpr std::size_t kMaxIdBytes = 256;

[[noreturn]] void bad(const std::string& message) {
    throw request_error(error_code::bad_request, message);
}

const json::value& field(const json::object& obj, const char* key) {
    const auto it = obj.find(key);
    if (it == obj.end()) bad(std::string("missing required field \"") + key + "\"");
    return it->second;
}

std::string string_field(const json::object& obj, const char* key) {
    const json::value& v = field(obj, key);
    if (v.type() != json::kind::string) {
        bad(std::string("field \"") + key + "\" must be a string");
    }
    return v.as_string();
}

bool bool_field(const json::object& obj, const char* key, bool fallback) {
    const auto it = obj.find(key);
    if (it == obj.end()) return fallback;
    if (it->second.type() != json::kind::boolean) {
        bad(std::string("field \"") + key + "\" must be a boolean");
    }
    return it->second.as_bool();
}

/// Integer field in [minimum, maximum]; JSON numbers carry doubles, so
/// integrality is checked explicitly (1.5 swaps is a client bug, not a
/// value to truncate).
double int_field(const json::object& obj, const char* key, double fallback, double minimum,
                 double maximum) {
    const auto it = obj.find(key);
    if (it == obj.end()) return fallback;
    const json::value& v = it->second;
    if (v.type() != json::kind::number || v.as_number() != std::floor(v.as_number())) {
        bad(std::string("field \"") + key + "\" must be an integer");
    }
    const double n = v.as_number();
    if (n < minimum || n > maximum) {
        bad(std::string("field \"") + key + "\" must be in [" +
            std::to_string(static_cast<long long>(minimum)) + ", " +
            std::to_string(static_cast<long long>(maximum)) + "], got " + v.dump());
    }
    return n;
}

/// Rejects fields outside the op's schema — the serve counterpart of the
/// registry's unknown-option rejection: a misspelled field must never be
/// silently ignored.
void check_known_fields(const json::object& obj, const char* op_name,
                        std::initializer_list<std::string_view> known) {
    if (const std::string* key = json::unknown_key(obj, known)) {
        bad("unknown field \"" + *key + "\" for op \"" + op_name + "\"");
    }
}

generator_params parse_generate(const json::value& v) {
    if (v.type() != json::kind::object) bad("field \"generate\" must be an object");
    const json::object& obj = v.as_object();
    check_known_fields(obj, "generate", {"swaps", "gates", "seed"});
    generator_params params;
    params.swaps = static_cast<int>(int_field(obj, "swaps", 1, 0, 2147483647.0));
    params.gates =
        static_cast<std::size_t>(int_field(obj, "gates", 0, 0, 2147483647.0));
    params.seed = static_cast<std::uint64_t>(
        int_field(obj, "seed", 1, 0, tools::max_seed_option));
    return params;
}

std::string parse_id(const json::object& obj) {
    const std::string id = string_field(obj, "id");
    if (id.empty()) bad("field \"id\" must be a nonempty string");
    if (id.size() > kMaxIdBytes) {
        bad("field \"id\" exceeds " + std::to_string(kMaxIdBytes) + " bytes");
    }
    return id;
}

request parse_request_object(const json::object& obj) {
    request req;
    req.id = parse_id(obj);
    const std::string op_name = string_field(obj, "op");

    if (op_name == "route") {
        req.which = op::route;
        check_known_fields(obj, "route",
                           {"id", "op", "device", "tool", "options", "qasm", "generate",
                            "timing", "emit_qasm"});
        route_request& r = req.route;
        r.id = req.id;
        r.device = string_field(obj, "device");
        r.tool = string_field(obj, "tool");
        if (!tools::is_registered_tool(r.tool)) {
            throw request_error(error_code::unknown_tool,
                                "unknown tool \"" + r.tool + "\"");
        }
        if (const auto it = obj.find("options"); it != obj.end()) {
            r.options = it->second;
            try {
                // Validate eagerly (unknown key / ill-typed / out-of-range
                // all reject here); the engine resolves again when it
                // builds the tool — same function, same result.
                (void)tools::resolve_options(tools::tool_registry_info(r.tool), r.options);
            } catch (const std::invalid_argument& e) {
                throw request_error(error_code::bad_option, e.what());
            }
        }
        const bool has_qasm = obj.find("qasm") != obj.end();
        const bool has_generate = obj.find("generate") != obj.end();
        if (has_qasm == has_generate) {
            bad("op \"route\" needs exactly one of \"qasm\" and \"generate\"");
        }
        if (has_qasm) r.qasm = string_field(obj, "qasm");
        if (has_generate) r.generate = parse_generate(obj.find("generate")->second);
        r.timing = bool_field(obj, "timing", false);
        r.emit_qasm = bool_field(obj, "emit_qasm", false);
        return req;
    }

    if (op_name == "certify") {
        req.which = op::certify;
        check_known_fields(obj, "certify",
                           {"id", "op", "device", "generate", "conflict_limit", "timing"});
        certify_request& c = req.certify;
        c.id = req.id;
        c.device = string_field(obj, "device");
        c.generate = parse_generate(field(obj, "generate"));
        c.conflict_limit = static_cast<std::uint64_t>(
            int_field(obj, "conflict_limit", 0, 0, tools::max_seed_option));
        c.timing = bool_field(obj, "timing", false);
        return req;
    }

    if (op_name == "tools") {
        req.which = op::tools;
        check_known_fields(obj, "tools", {"id", "op"});
        return req;
    }

    throw request_error(error_code::unknown_op,
                        "unknown op \"" + op_name +
                            "\" (expected route, certify or tools)");
}

/// Best-effort id recovery from a request that parsed as JSON but failed
/// validation, so the client can still correlate the error envelope.
std::string salvage_id(const json::value& root) {
    if (root.type() != json::kind::object) return "";
    const auto it = root.as_object().find("id");
    if (it == root.as_object().end() || it->second.type() != json::kind::string) return "";
    const std::string& id = it->second.as_string();
    return id.size() <= kMaxIdBytes ? id : "";
}

}  // namespace

const char* error_code_name(error_code code) {
    switch (code) {
        case error_code::parse_error: return "parse_error";
        case error_code::bad_request: return "bad_request";
        case error_code::unknown_op: return "unknown_op";
        case error_code::unknown_device: return "unknown_device";
        case error_code::unknown_tool: return "unknown_tool";
        case error_code::bad_option: return "bad_option";
        case error_code::oversized_line: return "oversized_line";
        case error_code::internal: return "internal";
    }
    return "internal";
}

json::value route_response::to_json() const {
    json::object doc;
    doc["depth"] = json::value(static_cast<std::int64_t>(depth));
    doc["depth_ratio"] = depth_ratio;
    doc["device"] = device;
    doc["id"] = id;
    doc["legal"] = legal;
    doc["ok"] = true;
    doc["op"] = "route";
    if (!qasm.empty()) doc["qasm"] = qasm;
    if (seconds >= 0.0) doc["seconds"] = seconds;
    doc["swaps"] = swaps;
    doc["tool"] = tool;
    if (!legal) doc["validation_error"] = validation_error;
    return json::value(std::move(doc));
}

json::value certify_response::to_json() const {
    json::object doc;
    doc["aborted"] = aborted;
    doc["confirmed"] = confirmed;
    doc["declared_swaps"] = declared_swaps;
    doc["device"] = device;
    doc["id"] = id;
    doc["ok"] = true;
    doc["op"] = "certify";
    if (seconds >= 0.0) doc["seconds"] = seconds;
    doc["solver_swaps"] = solver_swaps;
    return json::value(std::move(doc));
}

request parse_request(const std::string& line) {
    json::value root;
    try {
        root = json::parse(line);
    } catch (const json::error& e) {
        throw request_error(error_code::parse_error, e.what());
    }
    if (root.type() != json::kind::object) {
        throw request_error(error_code::parse_error, "request must be a JSON object");
    }
    return parse_request_object(root.as_object());
}

std::string error_line(const std::string& id, error_code code, const std::string& message) {
    json::object err;
    err["code"] = error_code_name(code);
    err["message"] = message;
    json::object doc;
    doc["error"] = json::value(std::move(err));
    doc["id"] = id;
    doc["ok"] = false;
    return json::value(std::move(doc)).dump();
}

std::string execute(engine& eng, const request& req) {
    static const obs::metric_id requests = obs::counter("serve.requests");
    static const obs::metric_id errors = obs::counter("serve.errors");
    const obs::trace_span span("serve.request");
    obs::add(requests);
    try {
        switch (req.which) {
            case op::route: return eng.route(req.route).to_json().dump();
            case op::certify: return eng.certify(req.certify).to_json().dump();
            case op::tools: {
                json::object doc;
                doc["id"] = req.id;
                doc["ok"] = true;
                doc["op"] = "tools";
                doc["registry"] = tools::registry_to_json();
                return json::value(std::move(doc)).dump();
            }
        }
        throw request_error(error_code::internal, "unhandled op");
    } catch (const request_error& e) {
        obs::add(errors);
        return error_line(req.id, e.code(), e.what());
    } catch (const std::exception& e) {
        // A tool/solver failure must answer this request, not unwind the
        // server loop past every other client.
        obs::add(errors);
        return error_line(req.id, error_code::internal, e.what());
    }
}

std::string handle_line(engine& eng, const std::string& line) {
    static const obs::metric_id errors = obs::counter("serve.errors");
    json::value root;
    try {
        root = json::parse(line);
    } catch (const json::error& e) {
        obs::add(errors);
        return error_line("", error_code::parse_error, e.what());
    }
    if (root.type() != json::kind::object) {
        obs::add(errors);
        return error_line("", error_code::parse_error, "request must be a JSON object");
    }
    request req;
    try {
        req = parse_request_object(root.as_object());
    } catch (const request_error& e) {
        obs::add(errors);
        return error_line(salvage_id(root), e.code(), e.what());
    }
    return execute(eng, req);
}

}  // namespace qubikos::serve
