// Plan expansion and shard assignment.
//
// A campaign_spec expands deterministically into an ordered list of work
// units — one per (suite, instance, tool) triple, suite-major,
// instance-major, tool-minor (the order a serial run executes and the
// report lists them). Every unit carries a
// stable human-readable ID derived from the spec alone, so any process
// holding the spec can tell which units a result store already covers
// without coordinating with the process that wrote it.
//
// Sharding is round-robin over the unit index: shard k of n owns units
// {i : i % n == k}. Round-robin (rather than contiguous blocks) spreads
// every swap count and architecture across all shards, which balances
// wall time when instance difficulty grows with the swap count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace qubikos::campaign {

struct work_unit {
    /// Stable ID, e.g. "u0:aspen4:n5:i3:seed42:lightsabre" (qubikos) or
    /// "u0:grid3x3:queko:d8:i0:seed1:exact" (family-tagged).
    std::string id;
    std::size_t suite_index = 0;
    /// Index of the instance within its suite (generation order).
    std::size_t instance_index = 0;
    std::string tool;
    benchmark_family family = benchmark_family::qubikos;
    /// The suite's raw sweep value for this unit: designed SWAPs
    /// (qubikos), depth (queko) or construction transitions (quekno).
    int sweep_value = 0;
    /// The claimed SWAP count the family asserts for the instance:
    /// certified optimum (qubikos), 0 (queko) or the construction upper
    /// bound (quekno).
    int designed_swaps = 0;
    /// The generator seed of this unit's instance (base_seed + index).
    std::uint64_t instance_seed = 0;
};

struct campaign_plan {
    campaign_spec spec;
    /// Suite-major, instance-major, tool-minor.
    std::vector<work_unit> units;
};

/// Expands a spec into its full ordered unit list. Throws on empty
/// suites or unknown tool names.
[[nodiscard]] campaign_plan expand_plan(const campaign_spec& spec);

/// Unit indices owned by `shard` of `num_shards` (ascending). The n
/// shards partition [0, num_units) exactly. Throws unless
/// 0 <= shard < num_shards.
[[nodiscard]] std::vector<std::size_t> shard_indices(std::size_t num_units, int shard,
                                                     int num_shards);

}  // namespace qubikos::campaign
