// Literal encoding for the SAT solver (MiniSat convention).
//
// Variables are dense non-negative ints; a literal packs variable and
// polarity as 2*var + (negated ? 1 : 0) so that negation is a single XOR
// and literals index arrays directly.
#pragma once

#include <cstdint>
#include <string>

namespace qubikos::sat {

using var = std::int32_t;

struct lit {
    std::int32_t code = -2;  // undefined by default

    lit() = default;
    /// Positive or negative literal of a variable.
    static lit make(var v, bool negated) { return lit{(v << 1) | (negated ? 1 : 0)}; }

    [[nodiscard]] var variable() const { return code >> 1; }
    [[nodiscard]] bool negated() const { return (code & 1) != 0; }
    [[nodiscard]] lit operator~() const { return lit{code ^ 1}; }
    /// Direct array index (0..2n-1).
    [[nodiscard]] std::size_t index() const { return static_cast<std::size_t>(code); }

    [[nodiscard]] std::string str() const {
        std::string out;
        if (negated()) out += '-';
        out += std::to_string(variable() + 1);
        return out;
    }

    friend bool operator==(const lit&, const lit&) = default;

private:
    explicit constexpr lit(std::int32_t c) : code(c) {}
    friend constexpr lit from_code(std::int32_t);
};

constexpr lit from_code(std::int32_t c) { return lit{c}; }

inline lit pos(var v) { return lit::make(v, false); }
inline lit neg(var v) { return lit::make(v, true); }

/// Three-valued assignment.
enum class lbool : std::uint8_t { false_, true_, undef };

}  // namespace qubikos::sat
