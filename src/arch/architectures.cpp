#include "arch/architectures.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace qubikos::arch {

architecture line(int n) {
    if (n < 2) throw std::invalid_argument("arch::line: need n >= 2");
    graph g(n);
    for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
    return {"line" + std::to_string(n), std::move(g)};
}

architecture ring(int n) {
    if (n < 3) throw std::invalid_argument("arch::ring: need n >= 3");
    graph g(n);
    for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
    g.add_edge(n - 1, 0);
    return {"ring" + std::to_string(n), std::move(g)};
}

architecture grid(int rows, int cols) {
    if (rows < 1 || cols < 1) throw std::invalid_argument("arch::grid: empty grid");
    graph g(rows * cols);
    const auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
            if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
        }
    }
    return {"grid" + std::to_string(rows) + "x" + std::to_string(cols), std::move(g)};
}

namespace {

/// Heavy-hex builder shared by heavy_hex() and eagle127(). Chains are
/// horizontal rows of qubits; connector qubits sit between chains at
/// columns congruent to `offset` (alternating 0 and 2) modulo 4, linking
/// the same column in both chains. `first_cols`/`last_cols` trim the first
/// and last chains the way IBM devices do.
architecture build_heavy_hex(const std::string& name, int rows, int row_len, bool trim_ends) {
    if (rows < 2 || row_len < 5) {
        throw std::invalid_argument("heavy_hex: need rows >= 2 and row_len >= 5");
    }
    graph g(0);
    // chain_start[r] = vertex id of column chain_col0[r] in chain r.
    std::vector<int> chain_start(static_cast<std::size_t>(rows));
    std::vector<int> chain_col0(static_cast<std::size_t>(rows), 0);
    std::vector<int> chain_len(static_cast<std::size_t>(rows), row_len);
    if (trim_ends) {
        // First chain drops the last column, last chain drops column 0
        // (ibm_washington pattern).
        chain_len.front() = row_len - 1;
        chain_len.back() = row_len - 1;
        chain_col0.back() = 1;
    }

    const auto col_of = [&](int r, int c) {
        return chain_start[static_cast<std::size_t>(r)] + (c - chain_col0[static_cast<std::size_t>(r)]);
    };

    for (int r = 0; r < rows; ++r) {
        chain_start[static_cast<std::size_t>(r)] = g.num_vertices();
        for (int c = 0; c < chain_len[static_cast<std::size_t>(r)]; ++c) g.add_vertex();
        for (int c = 0; c + 1 < chain_len[static_cast<std::size_t>(r)]; ++c) {
            const int base = chain_start[static_cast<std::size_t>(r)];
            g.add_edge(base + c, base + c + 1);
        }
        if (r == 0) continue;
        // Connectors between chain r-1 and chain r at every 4th column,
        // starting at 0 for even gaps and 2 for odd gaps.
        const int start_col = ((r - 1) % 2 == 0) ? 0 : 2;
        for (int c = start_col; c < row_len; c += 4) {
            const bool in_upper = c >= chain_col0[static_cast<std::size_t>(r - 1)] &&
                                  c < chain_col0[static_cast<std::size_t>(r - 1)] +
                                          chain_len[static_cast<std::size_t>(r - 1)];
            const bool in_lower = c >= chain_col0[static_cast<std::size_t>(r)] &&
                                  c < chain_col0[static_cast<std::size_t>(r)] +
                                          chain_len[static_cast<std::size_t>(r)];
            if (!in_upper || !in_lower) continue;
            const int connector = g.add_vertex();
            g.add_edge(col_of(r - 1, c), connector);
            g.add_edge(connector, col_of(r, c));
        }
    }
    return {name, std::move(g)};
}

}  // namespace

architecture heavy_hex(int rows, int row_len) {
    return build_heavy_hex("heavyhex" + std::to_string(rows) + "x" + std::to_string(row_len),
                           rows, row_len, /*trim_ends=*/false);
}

architecture aspen4() {
    // Two octagon rings (0-7 and 8-15) bridged by couplers (1,14), (2,13) —
    // the 16Q-A lattice with pyQuil ids 10..17 relabeled to 8..15.
    graph g(16);
    for (int i = 0; i < 8; ++i) g.add_edge(i, (i + 1) % 8);
    for (int i = 0; i < 8; ++i) g.add_edge(8 + i, 8 + (i + 1) % 8);
    g.add_edge(1, 14);
    g.add_edge(2, 13);
    return {"aspen4", std::move(g)};
}

architecture sycamore54() {
    // 9 rows x 6 columns, diagonal square lattice: 54 qubits, 88 couplers.
    constexpr int kRows = 9;
    constexpr int kCols = 6;
    graph g(kRows * kCols);
    const auto id = [](int r, int c) { return r * kCols + c; };
    for (int r = 0; r + 1 < kRows; ++r) {
        for (int c = 0; c < kCols; ++c) {
            g.add_edge(id(r, c), id(r + 1, c));
            if (r % 2 == 0) {
                if (c > 0) g.add_edge(id(r, c), id(r + 1, c - 1));
            } else {
                if (c + 1 < kCols) g.add_edge(id(r, c), id(r + 1, c + 1));
            }
        }
    }
    return {"sycamore54", std::move(g)};
}

architecture rochester53() {
    // Published ibmq_rochester coupling map: 53 qubits, 58 couplers.
    static const int kEdges[][2] = {
        {0, 1},   {1, 2},   {2, 3},   {3, 4},   {0, 5},   {4, 6},   {5, 9},   {6, 13},
        {7, 8},   {8, 9},   {9, 10},  {10, 11}, {11, 12}, {12, 13}, {13, 14}, {14, 15},
        {7, 16},  {11, 17}, {15, 18}, {16, 19}, {17, 23}, {18, 27}, {19, 20}, {20, 21},
        {21, 22}, {22, 23}, {23, 24}, {24, 25}, {25, 26}, {26, 27}, {21, 28}, {25, 29},
        {28, 32}, {29, 36}, {30, 31}, {31, 32}, {32, 33}, {33, 34}, {34, 35}, {35, 36},
        {36, 37}, {37, 38}, {30, 39}, {34, 40}, {38, 41}, {39, 42}, {40, 46}, {41, 50},
        {42, 43}, {43, 44}, {44, 45}, {45, 46}, {46, 47}, {47, 48}, {48, 49}, {49, 50},
        {45, 51}, {49, 52},
    };
    graph g(53);
    for (const auto& e : kEdges) g.add_edge(e[0], e[1]);
    return {"rochester53", std::move(g)};
}

architecture eagle127() {
    // Heavy-hex with 7 chains of 15 (first/last trimmed to 14) and 4
    // connectors per gap: 127 qubits, 144 couplers (ibm_washington).
    architecture a = build_heavy_hex("eagle127", /*rows=*/7, /*row_len=*/15, /*trim_ends=*/true);
    return a;
}

architecture tokyo20() {
    // IBM Q20 Tokyo: 4x5 grid plus the published diagonal couplers.
    static const int kEdges[][2] = {
        // grid rows
        {0, 1},   {1, 2},   {2, 3},   {3, 4},
        {5, 6},   {6, 7},   {7, 8},   {8, 9},
        {10, 11}, {11, 12}, {12, 13}, {13, 14},
        {15, 16}, {16, 17}, {17, 18}, {18, 19},
        // grid columns
        {0, 5},   {1, 6},   {2, 7},   {3, 8},   {4, 9},
        {5, 10},  {6, 11},  {7, 12},  {8, 13},  {9, 14},
        {10, 15}, {11, 16}, {12, 17}, {13, 18}, {14, 19},
        // diagonals
        {1, 7},   {2, 6},   {3, 9},   {4, 8},
        {5, 11},  {6, 10},  {7, 13},  {8, 12},
        {11, 17}, {12, 16}, {13, 19}, {14, 18},
    };
    graph g(20);
    for (const auto& e : kEdges) g.add_edge(e[0], e[1]);
    return {"tokyo20", std::move(g)};
}

architecture guadalupe16() {
    // ibmq_guadalupe (Falcon r4): 16 qubits, 16 couplers, small heavy-hex.
    static const int kEdges[][2] = {
        {0, 1}, {1, 2}, {2, 3}, {3, 5}, {5, 8}, {8, 9}, {8, 11}, {11, 14},
        {14, 13}, {13, 12}, {12, 10}, {10, 7}, {7, 4}, {4, 1}, {12, 15}, {6, 7},
    };
    graph g(16);
    for (const auto& e : kEdges) g.add_edge(e[0], e[1]);
    return {"guadalupe16", std::move(g)};
}

std::vector<architecture> paper_platforms() {
    std::vector<architecture> out;
    out.push_back(aspen4());
    out.push_back(sycamore54());
    out.push_back(rochester53());
    out.push_back(eagle127());
    return out;
}

namespace {

/// True when `text` is exactly a decimal int (digits only, in range);
/// stores it in `out`.
bool parse_size(std::string_view text, int& out) {
    if (text.empty() || text.front() < '0' || text.front() > '9') return false;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && ptr == end;
}

/// True when `name` is exactly `prefix` + "<a>x<b>"; stores both sizes.
bool parse_dims(std::string_view name, std::string_view prefix, int& a, int& b) {
    if (!name.starts_with(prefix)) return false;
    name.remove_prefix(prefix.size());
    const std::size_t x = name.find('x');
    return x != std::string_view::npos && parse_size(name.substr(0, x), a) &&
           parse_size(name.substr(x + 1), b);
}

bool fits_int(long long qubits) { return qubits <= std::numeric_limits<int>::max(); }

}  // namespace

architecture by_name(const std::string& name) {
    if (name == "aspen4") return aspen4();
    if (name == "sycamore54") return sycamore54();
    if (name == "rochester53") return rochester53();
    if (name == "eagle127") return eagle127();
    if (name == "tokyo20") return tokyo20();
    if (name == "guadalupe16") return guadalupe16();
    const std::string_view text = name;
    int a = 0;
    int b = 0;
    if (text.starts_with("line") && parse_size(text.substr(4), a)) return line(a);
    if (text.starts_with("ring") && parse_size(text.substr(4), a)) return ring(a);
    if (parse_dims(text, "grid", a, b) && fits_int(1LL * a * b)) return grid(a, b);
    // Chains plus at most one connector per 4 columns per gap.
    if (parse_dims(text, "heavyhex", a, b) && fits_int(1LL * a * b + 1LL * a * (b / 4 + 1))) {
        return heavy_hex(a, b);
    }
    throw std::invalid_argument("arch::by_name: unknown architecture '" + name + "'");
}

std::vector<std::string> known_names() {
    return {"aspen4",      "sycamore54", "rochester53", "eagle127",    "tokyo20",
            "guadalupe16", "line<n>",    "ring<n>",     "grid<r>x<c>", "heavyhex<r>x<c>"};
}

}  // namespace qubikos::arch
