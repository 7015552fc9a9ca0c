// Restart-budget schedule of the CDCL solver.
//
// luby() is the classic Luby-Sinclair-Zuckerman universal restart
// sequence (1,1,2,1,1,2,4,1,...): scaling a base conflict budget by
// luby(i) for the i-th restart is within a log factor of the optimal
// restart policy for any run-time distribution.
#pragma once

#include <cstdint>

namespace qubikos {

/// i-th element (0-based) of the Luby sequence 1,1,2,1,1,2,4,1,1,2,...
constexpr std::uint64_t luby(std::uint64_t i) {
    // Find the finite subsequence containing index i and its position.
    std::uint64_t size = 1;
    std::uint64_t seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) / 2;
        --seq;
        i = i % size;
    }
    return std::uint64_t{1} << seq;
}

}  // namespace qubikos
