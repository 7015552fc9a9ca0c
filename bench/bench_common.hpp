// Shared scaffolding for the benches.
//
// Every bench prints (1) the paper's reported numbers where it has them,
// (2) our measured numbers, (3) the run configuration. The default
// configuration is scaled down but shape-preserving. Set
// QUBIKOS_BENCH_SCALE=paper to run full scale, or QUBIKOS_BENCH_SCALE=smoke
// for CI-speed runs. (The paper's Fig. 4, Sec. IV-A, contrast and
// ablation experiments are campaign specs under experiments/.)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/csv.hpp"

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

/// Saves a CSV next to the binary under bench_results/.
inline void save_results(const csv::writer& w, const std::string& name) {
    std::filesystem::create_directories("bench_results");
    const std::string path = "bench_results/" + name + ".csv";
    w.save(path);
    std::printf("[raw data: %s]\n", path.c_str());
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
