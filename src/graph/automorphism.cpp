#include "graph/automorphism.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace qubikos {

namespace {

/// Backtracking search for one automorphism that fixes a vertex set
/// pointwise and maps a pinned vertex v to w. Vertices are extended in
/// BFS order from v, so each one after the first of its component has
/// an already-mapped BFS parent and its image must be a neighbor of the
/// parent's image. A candidate image must share the vertex's distance
/// profile and preserve its distance to every vertex mapped so far;
/// preserving all pairwise distances preserves adjacency, so a complete
/// assignment is an automorphism.
class automorphism_search {
public:
    automorphism_search(const graph& g, const distance_provider& dist,
                        const std::vector<int>& profile, const std::vector<int>& fixed,
                        std::uint64_t budget)
        : g_(g), dist_(dist), profile_(profile), fixed_(fixed), budget_(budget) {
        const auto n = static_cast<std::size_t>(g.num_vertices());
        image_.assign(n, -1);
        used_.assign(n, false);
    }

    /// Finds an automorphism with v -> w; image() holds it on success.
    bool find(int v, int w) {
        order(v);
        std::fill(image_.begin(), image_.end(), -1);
        std::fill(used_.begin(), used_.end(), false);
        mapped_.clear();
        for (const int f : fixed_) assign(f, f);
        return try_image(v, w) && extend(0);
    }

    [[nodiscard]] bool exhausted() const { return nodes_ > budget_; }
    [[nodiscard]] const std::vector<int>& image() const { return image_; }

private:
    /// BFS order from v and the fixed vertices, then from the smallest
    /// unreached vertex of each remaining component. Fixed vertices and v
    /// are mapped before the search starts, so they stay out of order_.
    void order(int v) {
        const int n = g_.num_vertices();
        std::vector<bool> seen(static_cast<std::size_t>(n), false);
        std::vector<int> queue{v};
        queue.insert(queue.end(), fixed_.begin(), fixed_.end());
        for (const int u : queue) seen[static_cast<std::size_t>(u)] = true;
        order_.clear();
        parent_.clear();
        std::size_t head = 0;
        for (int s = 0;;) {
            for (; head < queue.size(); ++head) {
                const int u = queue[head];
                for (const int x : g_.neighbors(u)) {
                    if (seen[static_cast<std::size_t>(x)]) continue;
                    seen[static_cast<std::size_t>(x)] = true;
                    queue.push_back(x);
                    order_.push_back(x);
                    parent_.push_back(u);
                }
            }
            while (s < n && seen[static_cast<std::size_t>(s)]) ++s;
            if (s == n) return;
            seen[static_cast<std::size_t>(s)] = true;
            queue.push_back(s);
            order_.push_back(s);
            parent_.push_back(-1);
        }
    }

    void assign(int u, int c) {
        image_[static_cast<std::size_t>(u)] = c;
        used_[static_cast<std::size_t>(c)] = true;
        mapped_.push_back(u);
    }

    void unassign(int u) {
        used_[static_cast<std::size_t>(image_[static_cast<std::size_t>(u)])] = false;
        image_[static_cast<std::size_t>(u)] = -1;
        mapped_.pop_back();
    }

    /// Maps u -> c when c is free, matches u's profile and keeps every
    /// distance to the vertices mapped so far; counts a search node.
    bool try_image(int u, int c) {
        if (used_[static_cast<std::size_t>(c)] ||
            profile_[static_cast<std::size_t>(u)] != profile_[static_cast<std::size_t>(c)]) {
            return false;
        }
        const std::int32_t* from_u = dist_.row(u);
        const std::int32_t* from_c = dist_.row(c);
        for (const int a : mapped_) {
            if (from_u[a] != from_c[image_[static_cast<std::size_t>(a)]]) return false;
        }
        if (++nodes_ > budget_) return false;
        assign(u, c);
        return true;
    }

    bool extend(std::size_t i) {
        if (i == order_.size()) return true;
        const int u = order_[i];
        const int parent = parent_[i];
        const auto attempt = [&](int c) {
            if (!try_image(u, c)) return false;
            if (extend(i + 1)) return true;
            unassign(u);
            return false;
        };
        if (parent >= 0) {
            for (const int c : g_.neighbors(image_[static_cast<std::size_t>(parent)])) {
                if (attempt(c)) return true;
                if (exhausted()) return false;
            }
        } else {
            for (int c = 0; c < g_.num_vertices(); ++c) {
                if (attempt(c)) return true;
                if (exhausted()) return false;
            }
        }
        return false;
    }

    const graph& g_;
    const distance_provider& dist_;
    const std::vector<int>& profile_;
    const std::vector<int>& fixed_;
    std::uint64_t budget_;
    std::uint64_t nodes_ = 0;
    std::vector<int> order_, parent_;  // extension order and BFS parents
    std::vector<int> image_;           // vertex -> image, -1 unmapped
    std::vector<bool> used_;           // vertex is some vertex's image
    std::vector<int> mapped_;          // mapped vertices, in mapping order
};

}  // namespace

std::vector<int> distance_profiles(const graph& g, const distance_provider& dist) {
    const int n = g.num_vertices();
    std::vector<int> profile(static_cast<std::size_t>(n));
    std::map<std::vector<std::int32_t>, int> ids;
    for (int v = 0; v < n; ++v) {
        std::vector<std::int32_t> row(dist.row(v), dist.row(v) + n);
        std::sort(row.begin(), row.end());
        profile[static_cast<std::size_t>(v)] =
            ids.emplace(std::move(row), static_cast<int>(ids.size())).first->second;
    }
    return profile;
}

std::vector<int> automorphism_orbits(const graph& g, const distance_provider& dist,
                                     const std::vector<int>& fixed, std::uint64_t node_budget,
                                     const std::vector<int>* profiles) {
    const int n = g.num_vertices();
    std::vector<int> root(static_cast<std::size_t>(n));
    std::iota(root.begin(), root.end(), 0);
    const std::vector<int> own =
        profiles == nullptr ? distance_profiles(g, dist) : std::vector<int>{};
    const std::vector<int>& profile = profiles == nullptr ? own : *profiles;

    // Union-find whose root is the smallest vertex of its class.
    const auto find = [&](int v) {
        while (root[static_cast<std::size_t>(v)] != v) {
            root[static_cast<std::size_t>(v)] =
                root[static_cast<std::size_t>(root[static_cast<std::size_t>(v)])];
            v = root[static_cast<std::size_t>(v)];
        }
        return v;
    };
    const auto unite = [&](int a, int b) {
        a = find(a);
        b = find(b);
        if (a == b) return;
        root[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
    };

    std::vector<bool> is_fixed(static_cast<std::size_t>(n), false);
    for (const int f : fixed) is_fixed[static_cast<std::size_t>(f)] = true;

    // Classes only merge through a found automorphism's cycles, so each
    // stays inside one orbit. When v's turn comes, every smaller vertex
    // sits in a finished orbit without v; testing v against each other
    // class (one member stands for its class) finishes v's orbit.
    automorphism_search search(g, dist, profile, fixed, node_budget);
    for (int v = 0; v < n; ++v) {
        if (is_fixed[static_cast<std::size_t>(v)] || find(v) != v) continue;
        for (int w = v + 1; w < n; ++w) {
            if (is_fixed[static_cast<std::size_t>(w)] || find(w) != w ||
                profile[static_cast<std::size_t>(v)] != profile[static_cast<std::size_t>(w)]) {
                continue;
            }
            if (search.find(v, w)) {
                for (int u = 0; u < n; ++u) unite(u, search.image()[static_cast<std::size_t>(u)]);
            } else if (search.exhausted()) {
                std::iota(root.begin(), root.end(), 0);
                return root;
            }
        }
    }
    for (int v = 0; v < n; ++v) root[static_cast<std::size_t>(v)] = find(v);
    return root;
}

}  // namespace qubikos
