#include "graph/vf2.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace qubikos {

namespace {

/// Necessary condition: sort degrees descending; every pattern degree must
/// be dominated by the matching target degree (an embedding maps each
/// pattern vertex to a target vertex of at least its degree).
bool degree_sequence_dominated(const graph& pattern, const graph& target) {
    std::vector<int> pd, td;
    pd.reserve(static_cast<std::size_t>(pattern.num_vertices()));
    td.reserve(static_cast<std::size_t>(target.num_vertices()));
    for (int v = 0; v < pattern.num_vertices(); ++v) pd.push_back(pattern.degree(v));
    for (int v = 0; v < target.num_vertices(); ++v) td.push_back(target.degree(v));
    std::sort(pd.rbegin(), pd.rend());
    std::sort(td.rbegin(), td.rend());
    for (std::size_t i = 0; i < pd.size(); ++i) {
        if (pd[i] > td[i]) return false;
    }
    return true;
}

/// Search order over the non-isolated pattern vertices: greedily take the
/// vertex with the most already-ordered neighbors (ties: higher degree).
/// Keeps the partial pattern connected whenever possible, which maximizes
/// constraint propagation.
std::vector<int> search_order(const graph& pattern) {
    const int n = pattern.num_vertices();
    std::vector<int> order;
    std::vector<char> placed(static_cast<std::size_t>(n), 0);
    std::vector<int> ordered_neighbors(static_cast<std::size_t>(n), 0);
    int remaining = 0;
    for (int v = 0; v < n; ++v) {
        if (pattern.degree(v) > 0) ++remaining;
    }
    while (remaining > 0) {
        int best = -1;
        for (int v = 0; v < n; ++v) {
            if (placed[static_cast<std::size_t>(v)] || pattern.degree(v) == 0) continue;
            if (best == -1 ||
                ordered_neighbors[static_cast<std::size_t>(v)] >
                    ordered_neighbors[static_cast<std::size_t>(best)] ||
                (ordered_neighbors[static_cast<std::size_t>(v)] ==
                     ordered_neighbors[static_cast<std::size_t>(best)] &&
                 pattern.degree(v) > pattern.degree(best))) {
                best = v;
            }
        }
        placed[static_cast<std::size_t>(best)] = 1;
        order.push_back(best);
        --remaining;
        for (const int w : pattern.neighbors(best)) {
            ++ordered_neighbors[static_cast<std::size_t>(w)];
        }
    }
    return order;
}

class matcher {
public:
    matcher(const graph& pattern, const graph& target, const vf2_options& options)
        : pattern_(pattern),
          target_(target),
          options_(options),
          order_(search_order(pattern)),
          mapping_(static_cast<std::size_t>(pattern.num_vertices()), -1),
          used_(static_cast<std::size_t>(target.num_vertices()), 0) {}

    vf2_result run() {
        vf2_result result;
        if (pattern_.num_vertices() > target_.num_vertices() ||
            pattern_.num_edges() > target_.num_edges() ||
            !degree_sequence_dominated(pattern_, target_)) {
            return result;
        }
        const int status = extend(0);
        result.nodes_explored = nodes_;
        if (status == kFound) {
            assign_isolated();
            result.found = true;
            result.mapping = mapping_;
        } else if (status == kAborted) {
            result.limit_hit = true;
        }
        return result;
    }

private:
    static constexpr int kFound = 1;
    static constexpr int kExhausted = 0;
    static constexpr int kAborted = -1;

    bool feasible(int v, int candidate) const {
        if (used_[static_cast<std::size_t>(candidate)]) return false;
        if (target_.degree(candidate) < pattern_.degree(v)) return false;
        for (const int w : pattern_.neighbors(v)) {
            const int mapped = mapping_[static_cast<std::size_t>(w)];
            if (mapped != -1 && !target_.has_edge(candidate, mapped)) return false;
        }
        return true;
    }

    int extend(std::size_t depth) {
        if (depth == order_.size()) return kFound;
        if (options_.node_limit != 0 && nodes_ >= options_.node_limit) return kAborted;
        ++nodes_;

        const int v = order_[depth];
        // Candidates: neighbors of an already-mapped pattern neighbor when
        // one exists (the search order makes this the common case), else
        // every unused target vertex.
        int anchor = -1;
        for (const int w : pattern_.neighbors(v)) {
            if (mapping_[static_cast<std::size_t>(w)] != -1) {
                anchor = mapping_[static_cast<std::size_t>(w)];
                break;
            }
        }
        if (anchor != -1) {
            for (const int candidate : target_.neighbors(anchor)) {
                const int status = try_candidate(v, candidate, depth);
                if (status != kExhausted) return status;
            }
        } else {
            for (int candidate = 0; candidate < target_.num_vertices(); ++candidate) {
                const int status = try_candidate(v, candidate, depth);
                if (status != kExhausted) return status;
            }
        }
        return kExhausted;
    }

    int try_candidate(int v, int candidate, std::size_t depth) {
        if (!feasible(v, candidate)) return kExhausted;
        mapping_[static_cast<std::size_t>(v)] = candidate;
        used_[static_cast<std::size_t>(candidate)] = 1;
        const int status = extend(depth + 1);
        if (status == kExhausted) {
            mapping_[static_cast<std::size_t>(v)] = -1;
            used_[static_cast<std::size_t>(candidate)] = 0;
        }
        return status;
    }

    /// Give every isolated pattern vertex a distinct spare target. Always
    /// possible because |pattern| <= |target| was checked upfront.
    void assign_isolated() {
        int next = 0;
        for (int v = 0; v < pattern_.num_vertices(); ++v) {
            if (mapping_[static_cast<std::size_t>(v)] != -1) continue;
            while (used_[static_cast<std::size_t>(next)]) ++next;
            mapping_[static_cast<std::size_t>(v)] = next;
            used_[static_cast<std::size_t>(next)] = 1;
        }
    }

    const graph& pattern_;
    const graph& target_;
    const vf2_options options_;
    std::vector<int> order_;
    std::vector<int> mapping_;
    std::vector<char> used_;
    std::uint64_t nodes_ = 0;
};

}  // namespace

vf2_result find_subgraph_monomorphism(const graph& pattern, const graph& target,
                                      const vf2_options& options) {
    const obs::trace_span span("vf2.match");
    const vf2_result result = matcher(pattern, target, options).run();
    if (obs::enabled()) {
        static const obs::counter_set names{"vf2.calls", "vf2.limit_hits", "vf2.nodes_explored"};
        const std::uint64_t values[] = {1, result.limit_hit ? 1u : 0u, result.nodes_explored};
        names.publish(values, nullptr);
    }
    return result;
}

bool is_subgraph_monomorphic(const graph& pattern, const graph& target,
                             const vf2_options& options) {
    const auto result = find_subgraph_monomorphism(pattern, target, options);
    if (result.limit_hit) {
        throw std::runtime_error("is_subgraph_monomorphic: node limit hit before conclusion");
    }
    return result.found;
}

bool check_monomorphism(const graph& pattern, const graph& target,
                        const std::vector<int>& mapping) {
    if (static_cast<int>(mapping.size()) != pattern.num_vertices()) return false;
    std::vector<char> used(static_cast<std::size_t>(target.num_vertices()), 0);
    for (const int image : mapping) {
        if (image < 0 || image >= target.num_vertices()) return false;
        if (used[static_cast<std::size_t>(image)]) return false;
        used[static_cast<std::size_t>(image)] = 1;
    }
    for (const auto& e : pattern.edges()) {
        if (!target.has_edge(mapping[static_cast<std::size_t>(e.a)],
                             mapping[static_cast<std::size_t>(e.b)])) {
            return false;
        }
    }
    return true;
}

bool brute_force_monomorphic(const graph& pattern, const graph& target) {
    if (pattern.num_vertices() > target.num_vertices()) return false;
    // Permute target vertex subsets of pattern size via index selection.
    std::vector<int> mapping(static_cast<std::size_t>(pattern.num_vertices()), -1);
    std::vector<char> used(static_cast<std::size_t>(target.num_vertices()), 0);

    const auto recurse = [&](auto&& self, int v) -> bool {
        if (v == pattern.num_vertices()) return true;
        for (int c = 0; c < target.num_vertices(); ++c) {
            if (used[static_cast<std::size_t>(c)]) continue;
            bool ok = true;
            for (const int w : pattern.neighbors(v)) {
                if (w < v && !target.has_edge(c, mapping[static_cast<std::size_t>(w)])) {
                    ok = false;
                    break;
                }
            }
            if (!ok) continue;
            mapping[static_cast<std::size_t>(v)] = c;
            used[static_cast<std::size_t>(c)] = 1;
            if (self(self, v + 1)) return true;
            mapping[static_cast<std::size_t>(v)] = -1;
            used[static_cast<std::size_t>(c)] = 0;
        }
        return false;
    };
    return recurse(recurse, 0);
}

}  // namespace qubikos
