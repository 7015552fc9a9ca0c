#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace qubikos::json {

const value& value::at(const std::string& key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) throw error("json: missing key '" + key + "'");
    return it->second;
}

bool value::contains(const std::string& key) const {
    return kind_ == kind::object && obj_->count(key) > 0;
}

const std::string* unknown_key(const object& o, std::initializer_list<std::string_view> known) {
    for (const auto& [key, unused] : o) {
        if (std::find(known.begin(), known.end(), key) == known.end()) return &key;
    }
    return nullptr;
}

void append_quoted(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

std::string quoted(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    append_quoted(out, s);
    return out;
}

namespace {

void write_number(std::string& out, double d) {
    if (!std::isfinite(d)) throw error("json: non-finite number");
    if (d == std::floor(d) && std::abs(d) < 1e15) {
        out += std::to_string(static_cast<long long>(d));
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
}

void newline(std::string& out, int indent, int depth) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void value::write(std::string& out, int indent, int depth) const {
    switch (kind_) {
        case kind::null: out += "null"; return;
        case kind::boolean: out += bool_ ? "true" : "false"; return;
        case kind::number: write_number(out, num_); return;
        case kind::string: append_quoted(out, str_); return;
        case kind::array: {
            const auto& arr = *arr_;
            if (arr.empty()) {
                out += "[]";
                return;
            }
            out += '[';
            bool first = true;
            for (const auto& item : arr) {
                if (!first) out += ',';
                first = false;
                newline(out, indent, depth + 1);
                item.write(out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out += ']';
            return;
        }
        case kind::object: {
            const auto& obj = *obj_;
            if (obj.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            bool first = true;
            for (const auto& [key, val] : obj) {
                if (!first) out += ',';
                first = false;
                newline(out, indent, depth + 1);
                append_quoted(out, key);
                out += indent < 0 ? ":" : ": ";
                val.write(out, indent, depth + 1);
            }
            newline(out, indent, depth);
            out += '}';
            return;
        }
    }
}

std::string value::dump(int indent) const {
    std::string out;
    write(out, indent, 0);
    return out;
}

namespace {

class parser {
public:
    explicit parser(const std::string& text) : text_(text) {}

    value run() {
        skip_ws();
        value v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw error("json parse error at offset " + std::to_string(pos_) + ": " + why);
    }

    char peek() const {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }

    void expect(char c) {
        if (take() != c) fail(std::string("expected '") + c + "'");
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool consume_keyword(const char* kw) {
        std::size_t len = 0;
        while (kw[len] != '\0') ++len;
        if (text_.compare(pos_, len, kw) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    value parse_value() {
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return value(parse_string());
            case 't':
                if (consume_keyword("true")) return value(true);
                fail("bad keyword");
            case 'f':
                if (consume_keyword("false")) return value(false);
                fail("bad keyword");
            case 'n':
                if (consume_keyword("null")) return value(nullptr);
                fail("bad keyword");
            default: return parse_number();
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = take();
            if (c == '"') return out;
            if (c == '\\') {
                const char esc = take();
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = take();
                            code <<= 4;
                            if (h >= '0' && h <= '9')
                                code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f')
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F')
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            else
                                fail("bad \\u escape");
                        }
                        // Suite metadata is ASCII; encode BMP code points as UTF-8.
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xc0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        } else {
                            out += static_cast<char>(0xe0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        }
                        break;
                    }
                    default: fail("bad escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("control character in string");
            } else {
                out += c;
            }
        }
    }

    value parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) fail("expected value");
        double out = 0;
        const auto result = std::from_chars(text_.data() + start, text_.data() + pos_, out);
        if (result.ec != std::errc{} || result.ptr != text_.data() + pos_) fail("bad number");
        return value(out);
    }

    value parse_array() {
        expect('[');
        array out;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return value(std::move(out));
        }
        for (;;) {
            out.push_back(parse_value());
            skip_ws();
            const char c = take();
            if (c == ']') return value(std::move(out));
            if (c != ',') fail("expected ',' or ']'");
        }
    }

    value parse_object() {
        expect('{');
        object out;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return value(std::move(out));
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            out.emplace(std::move(key), parse_value());
            skip_ws();
            const char c = take();
            if (c == '}') return value(std::move(out));
            if (c != ',') fail("expected ',' or '}'");
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

value parse(const std::string& text) { return parser(text).run(); }

}  // namespace qubikos::json
