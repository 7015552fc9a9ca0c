// All-pairs shortest-path distances on unweighted graphs.
//
// Every heuristic router scores SWAP candidates by coupling-graph
// distance. Small devices share one dense matrix computed up front;
// thousand-qubit synthetic devices go through the lazy provider below,
// which materializes only the BFS rows a route actually touches.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"

namespace qubikos {

/// Dense APSP matrix computed by one BFS per vertex into one contiguous
/// int32 allocation (a row per source, written in place — no per-vertex
/// heap traffic). Rows are independent, so above a row-count threshold
/// the build fans out over thread_pool::shared(); each row is produced
/// by the same serial BFS either way, so the matrix is bit-identical at
/// any thread count. Distances of disconnected pairs are reported as
/// unreachable().
class distance_matrix {
public:
    distance_matrix() = default;
    explicit distance_matrix(const graph& g);

    [[nodiscard]] int operator()(int u, int v) const {
        return dist_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                     static_cast<std::size_t>(v)];
    }

    [[nodiscard]] int at(int u, int v) const;
    [[nodiscard]] int num_vertices() const { return n_; }
    [[nodiscard]] static constexpr int unreachable() { return -1; }

    /// Contiguous row-major storage (n*n int32).
    [[nodiscard]] const std::int32_t* data() const { return dist_.data(); }

    /// Row of distances from source u.
    [[nodiscard]] const std::int32_t* row(int u) const {
        return dist_.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
    }

    /// Largest finite pairwise distance (0 for the empty graph).
    [[nodiscard]] int diameter() const;

private:
    int n_ = 0;
    std::vector<std::int32_t> dist_;
};

/// Storage policy for distance_provider. `automatic` picks dense below
/// kLazyThreshold vertices and lazy at or above it; `dense`/`lazy`
/// force a backend (tests and bench_micro compare lazy against dense).
/// make_routing_context exposes the option to every registry tool and
/// the serve engine's device cache.
struct distance_options {
    enum class storage_mode { automatic, dense, lazy };

    /// Vertex count at which `automatic` switches to lazy rows. 512 is
    /// far above every physical device in the paper's evaluation
    /// (eagle127) but below the synthetic thousand-qubit sweeps.
    static constexpr int kLazyThreshold = 512;

    storage_mode mode = storage_mode::automatic;

    [[nodiscard]] bool use_lazy(int num_vertices) const {
        if (mode == storage_mode::dense) return false;
        if (mode == storage_mode::lazy) return true;
        return num_vertices >= kLazyThreshold;
    }
};

/// Uniform distance oracle over either backend.
///
/// Dense mode wraps a distance_matrix. Lazy mode keeps a copy of the
/// graph and computes per-source BFS rows on first use, caching them in
/// a mutex-protected slab with lock-free (acquire-load) hits — so a
/// heavy-hex device scaled to thousands of qubits routes without ever
/// materializing O(V^2), and concurrent trials share the same cache.
/// Both backends return identical values for every query, including
/// diameter(); routed output therefore never depends on the backend.
class distance_provider {
public:
    distance_provider() = default;
    explicit distance_provider(const graph& g, distance_options options = {});

    distance_provider(const distance_provider&) = delete;
    distance_provider& operator=(const distance_provider&) = delete;

    [[nodiscard]] int operator()(int u, int v) const {
        const std::int32_t* base = dense_;
        if (base != nullptr) {
            return base[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                        static_cast<std::size_t>(v)];
        }
        return lazy_row(u)[v];
    }

    /// Row of distances from source u (built on demand in lazy mode).
    [[nodiscard]] const std::int32_t* row(int u) const {
        const std::int32_t* base = dense_;
        if (base != nullptr) {
            return base + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_);
        }
        return lazy_row(u);
    }

    [[nodiscard]] int num_vertices() const { return n_; }
    [[nodiscard]] bool is_lazy() const { return dense_ == nullptr; }
    [[nodiscard]] static constexpr int unreachable() { return distance_matrix::unreachable(); }

    /// BFS rows materialized so far (== num_vertices in dense mode).
    [[nodiscard]] std::size_t rows_built() const;

    /// Largest finite pairwise distance, identical to the dense value in
    /// both modes (lazy computes it with one O(V*(V+E)) scan the first
    /// time, caching the result — O(V) memory, no row materialization).
    /// Routers derive the stagnation release valve from this, so it must
    /// not depend on the backend.
    [[nodiscard]] int diameter() const;

private:
    [[nodiscard]] const std::int32_t* lazy_row(int u) const;

    int n_ = 0;
    distance_matrix matrix_;               // dense backend (empty when lazy)
    const std::int32_t* dense_ = nullptr;  // matrix_.data() or nullptr
    graph graph_;                          // lazy backend: owned copy for BFS

    // Lazy row cache. rows_ holds one atomic pointer per source; a row
    // is published with a release store after its slab vector is fully
    // written, so readers that acquire-load a non-null pointer see a
    // complete row without taking the mutex. The deque gives slab
    // entries stable addresses across growth.
    mutable std::vector<std::atomic<const std::int32_t*>> rows_;
    mutable std::mutex slab_mutex_;
    mutable std::deque<std::vector<std::int32_t>> slab_;
    mutable std::atomic<std::size_t> rows_built_{0};
    mutable std::atomic<int> diameter_{-1};
};

}  // namespace qubikos
