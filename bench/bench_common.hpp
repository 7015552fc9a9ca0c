// Shared scaffolding for the timing benches (bench_micro, bench_serve).
//
// Every bench prints its measured numbers and the run configuration and
// writes the BENCH_*.json that scripts/bench_regression_gate.py gates.
// QUBIKOS_BENCH_SCALE=smoke|standard|paper picks the input sizes and
// repetitions (smoke for CI-speed runs). Every paper analysis, placement
// quality included, is a campaign spec under experiments/, not a bench.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace qubikos::bench {

enum class scale { smoke, standard, paper };

/// The scale QUBIKOS_BENCH_SCALE selects (unset = standard). Any other
/// value exits 2: a typo must not quietly run the standard scale.
inline scale bench_scale() {
    const char* env = std::getenv("QUBIKOS_BENCH_SCALE");
    if (env == nullptr) return scale::standard;
    const std::string value(env);
    if (value == "paper") return scale::paper;
    if (value == "smoke") return scale::smoke;
    if (value == "standard") return scale::standard;
    std::fprintf(stderr, "unknown QUBIKOS_BENCH_SCALE '%s' (expected smoke|standard|paper)\n",
                 env);
    std::exit(2);
}

inline const char* scale_name(scale s) {
    switch (s) {
        case scale::smoke: return "smoke";
        case scale::standard: return "standard";
        case scale::paper: return "paper";
    }
    return "?";
}

inline void print_header(const char* title, const char* paper_ref) {
    const scale s = bench_scale();  // exits on a bad value before any output
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("scale: %s (QUBIKOS_BENCH_SCALE=smoke|standard|paper)\n", scale_name(s));
    std::printf("==============================================================\n");
}

}  // namespace qubikos::bench
