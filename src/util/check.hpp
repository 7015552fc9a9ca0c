// Contract-checking macros for the determinism and legality invariants
// the library promises (see docs/determinism.md).
//
//   QUBIKOS_ASSERT(cond)            plain contract check
//   QUBIKOS_CHECK_MSG(cond, msg)    contract check with streamed context:
//                                   QUBIKOS_CHECK_MSG(a == b, "p=" << p)
//   QUBIKOS_DCHECK(cond)            heavyweight check (full-structure
//                                   scans); only ever on in !NDEBUG builds
//
// All three abort with context (expression, file:line, function, message)
// on violation, and all three are FULLY elided — the condition is not
// evaluated — unless checks are enabled. Enablement:
//
//   QUBIKOS_ENABLE_CHECKS=1   force-on  (the CI Debug+checks leg)
//   QUBIKOS_ENABLE_CHECKS=0   force-off
//   (undefined)               follow the build type: on iff !NDEBUG
//
// QUBIKOS_DCHECK additionally requires !NDEBUG: a Release+checks build
// runs the O(1)/O(log n) boundary contracts but not the O(n) scans.
//
// Contract failures are bugs, not runtime errors: the handler writes the
// context to stderr and aborts, so a fleet worker dies loudly at the
// violation site instead of writing a wrong record that a campaign report
// would then trust.
#pragma once

#include <sstream>
#include <string>

namespace qubikos::check_detail {

/// Renders the failure report exactly as the abort path prints it.
/// Factored out so tests can assert on message capture without dying.
[[nodiscard]] std::string format_failure(const char* expr, const char* file, int line,
                                         const char* function, const std::string& message);

/// Prints the formatted report to stderr and aborts.
[[noreturn]] void fail(const char* expr, const char* file, int line, const char* function,
                       const std::string& message);

}  // namespace qubikos::check_detail

#if !defined(QUBIKOS_ENABLE_CHECKS)
#if defined(NDEBUG)
#define QUBIKOS_ENABLE_CHECKS 0
#else
#define QUBIKOS_ENABLE_CHECKS 1
#endif
#endif

namespace qubikos {
/// Compile-time visibility of the gate, so tests (and callers priming
/// expensive check inputs) can branch on it.
inline constexpr bool checks_enabled = QUBIKOS_ENABLE_CHECKS != 0;
#if !defined(NDEBUG)
inline constexpr bool dchecks_enabled = checks_enabled;
#else
inline constexpr bool dchecks_enabled = false;
#endif
}  // namespace qubikos

#if QUBIKOS_ENABLE_CHECKS

#define QUBIKOS_ASSERT(cond)                                                              \
    do {                                                                                  \
        if (!(cond)) {                                                                    \
            ::qubikos::check_detail::fail(#cond, __FILE__, __LINE__, __func__, {});       \
        }                                                                                 \
    } while (false)

#define QUBIKOS_CHECK_MSG(cond, msg)                                                      \
    do {                                                                                  \
        if (!(cond)) {                                                                    \
            std::ostringstream qubikos_check_stream_;                                     \
            qubikos_check_stream_ << msg; /* NOLINT(bugprone-macro-parentheses) */        \
            ::qubikos::check_detail::fail(#cond, __FILE__, __LINE__, __func__,            \
                                          qubikos_check_stream_.str());                   \
        }                                                                                 \
    } while (false)

#if !defined(NDEBUG)
#define QUBIKOS_DCHECK(cond) QUBIKOS_ASSERT(cond)
#else
#define QUBIKOS_DCHECK(cond) ((void)0)
#endif

#else  // checks disabled: conditions are never evaluated

#define QUBIKOS_ASSERT(cond) ((void)0)
#define QUBIKOS_CHECK_MSG(cond, msg) ((void)0)
#define QUBIKOS_DCHECK(cond) ((void)0)

#endif
