// Minimal JSON value model, writer and parser.
//
// Used to serialize benchmark-suite metadata (optimal swap counts, initial
// mappings, generator parameters) next to the QASM files, and to read it
// back in the evaluation harness. Covers the JSON subset the suite format
// needs: null, bool, number, string, array, object; no comments, no
// non-finite numbers.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace qubikos::json {

class value;

// The kind enum is declared before the container aliases: gcc's -Wshadow
// otherwise reports the scoped enumerators as shadowing the aliases.
enum class kind { null, boolean, number, string, array, object };

using array = std::vector<value>;
/// std::map keeps key order deterministic, which keeps emitted files diffable.
using object = std::map<std::string, value>;

/// Error thrown by the parser and by mistyped accessors.
class error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class value {
public:
    value() : kind_(kind::null) {}
    value(std::nullptr_t) : kind_(kind::null) {}
    value(bool b) : kind_(kind::boolean), bool_(b) {}
    value(double d) : kind_(kind::number), num_(d) {}
    value(int i) : kind_(kind::number), num_(i) {}
    value(std::int64_t i) : kind_(kind::number), num_(static_cast<double>(i)) {}
    value(std::size_t i) : kind_(kind::number), num_(static_cast<double>(i)) {}
    value(const char* s) : kind_(kind::string), str_(s) {}
    value(std::string s) : kind_(kind::string), str_(std::move(s)) {}
    value(array a) : kind_(kind::array), arr_(std::make_shared<array>(std::move(a))) {}
    value(object o) : kind_(kind::object), obj_(std::make_shared<object>(std::move(o))) {}

    [[nodiscard]] kind type() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == kind::null; }

    [[nodiscard]] bool as_bool() const {
        require(kind::boolean);
        return bool_;
    }
    [[nodiscard]] double as_number() const {
        require(kind::number);
        return num_;
    }
    [[nodiscard]] int as_int() const { return static_cast<int>(as_number()); }
    [[nodiscard]] const std::string& as_string() const {
        require(kind::string);
        return str_;
    }
    [[nodiscard]] const array& as_array() const {
        require(kind::array);
        return *arr_;
    }
    [[nodiscard]] const object& as_object() const {
        require(kind::object);
        return *obj_;
    }

    /// Object member access; throws if missing or not an object.
    [[nodiscard]] const value& at(const std::string& key) const;
    /// True when this is an object containing key.
    [[nodiscard]] bool contains(const std::string& key) const;

    /// Serialize. indent < 0 emits compact one-line JSON.
    [[nodiscard]] std::string dump(int indent = -1) const;

private:
    void require(kind k) const {
        if (kind_ != k) throw error("json: wrong type access");
    }
    void write(std::string& out, int indent, int depth) const;

    kind kind_;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::shared_ptr<array> arr_;
    std::shared_ptr<object> obj_;
};

/// The first key of `o` (in key order) outside `known`, or nullptr when
/// every key is known — the one check behind each strict reader (campaign
/// specs, store files, serve requests), which throws its own error on a
/// hit so a misspelled key fails instead of being dropped.
[[nodiscard]] const std::string* unknown_key(const object& o,
                                             std::initializer_list<std::string_view> known);

/// Parse a complete JSON document. Trailing garbage, a duplicate key in
/// one object and nesting deeper than 64 arrays/objects throw json::error.
[[nodiscard]] value parse(const std::string& text);

/// Appends `s` to `out` as a JSON string literal (quotes included) —
/// THE escaping routine of the codebase. value::dump, the serve
/// response emitter and the trace flusher all funnel through here so a
/// control character or quote can never reach an output stream raw.
void append_quoted(std::string& out, const std::string& s);

/// Convenience form of append_quoted.
[[nodiscard]] std::string quoted(const std::string& s);

}  // namespace qubikos::json
