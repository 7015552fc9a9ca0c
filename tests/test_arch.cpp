// Architecture-library facts: qubit/coupler counts of the paper's four
// platforms, structural sanity of the parametric families.
#include <gtest/gtest.h>

#include "arch/architectures.hpp"
#include "graph/connectivity.hpp"

namespace qubikos {
namespace {

int count_degree_at_least(const graph& g, int k) {
    int count = 0;
    for (int v = 0; v < g.num_vertices(); ++v) count += g.degree(v) >= k ? 1 : 0;
    return count;
}

TEST(arch, aspen4_shape) {
    const auto a = arch::aspen4();
    EXPECT_EQ(a.num_qubits(), 16);
    EXPECT_EQ(a.num_couplers(), 18);  // two octagons + 2 bridges
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);
    // Bridge endpoints have degree 3, everything else 2.
    EXPECT_EQ(count_degree_at_least(a.coupling, 3), 4);
}

TEST(arch, sycamore54_shape) {
    const auto a = arch::sycamore54();
    EXPECT_EQ(a.num_qubits(), 54);
    EXPECT_EQ(a.num_couplers(), 88);  // published coupler count
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 4);  // diagonal square lattice
}

TEST(arch, rochester53_shape) {
    const auto a = arch::rochester53();
    EXPECT_EQ(a.num_qubits(), 53);
    EXPECT_EQ(a.num_couplers(), 58);  // published coupling map
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);  // heavy-hex style sparsity
}

TEST(arch, eagle127_shape) {
    const auto a = arch::eagle127();
    EXPECT_EQ(a.num_qubits(), 127);
    EXPECT_EQ(a.num_couplers(), 144);  // ibm_washington heavy-hex
    EXPECT_TRUE(is_connected(a.coupling));
    EXPECT_EQ(a.coupling.max_degree(), 3);
    // Heavy-hex degree profile: no vertex above 3; connector attachment
    // points in chain interiors are the only degree-3 vertices (the 12
    // attachments landing on chain ends stay at degree 2).
    EXPECT_EQ(count_degree_at_least(a.coupling, 3), 36);
}

TEST(arch, paper_platform_ordering) {
    const auto platforms = arch::paper_platforms();
    ASSERT_EQ(platforms.size(), 4u);
    EXPECT_EQ(platforms[0].name, "aspen4");
    EXPECT_EQ(platforms[1].name, "sycamore54");
    EXPECT_EQ(platforms[2].name, "rochester53");
    EXPECT_EQ(platforms[3].name, "eagle127");
}

TEST(arch, line_ring_grid) {
    EXPECT_EQ(arch::line(5).num_couplers(), 4);
    EXPECT_EQ(arch::ring(5).num_couplers(), 5);
    const auto g = arch::grid(3, 4);
    EXPECT_EQ(g.num_qubits(), 12);
    EXPECT_EQ(g.num_couplers(), 3 * 3 + 2 * 4);  // 17
    EXPECT_THROW(arch::line(1), std::invalid_argument);
    EXPECT_THROW(arch::ring(2), std::invalid_argument);
    EXPECT_THROW(arch::grid(0, 3), std::invalid_argument);
}

TEST(arch, heavy_hex_generic) {
    const auto h = arch::heavy_hex(3, 9);
    EXPECT_TRUE(is_connected(h.coupling));
    EXPECT_EQ(h.coupling.max_degree(), 3);
    // 3 chains of 9 plus connectors between the 2 gaps.
    EXPECT_GT(h.num_qubits(), 27);
    EXPECT_THROW(arch::heavy_hex(1, 9), std::invalid_argument);
    EXPECT_THROW(arch::heavy_hex(3, 4), std::invalid_argument);
}

TEST(arch, by_name_round_trip) {
    // Every builder's name looks the same device back up.
    for (const auto& device :
         {arch::line(5), arch::ring(6), arch::grid(3, 4), arch::heavy_hex(3, 9),
          arch::heavy_hex(5, 11), arch::aspen4(), arch::sycamore54(), arch::rochester53(),
          arch::eagle127(), arch::tokyo20(), arch::guadalupe16()}) {
        const auto looked_up = arch::by_name(device.name);
        EXPECT_EQ(looked_up.name, device.name);
        EXPECT_EQ(looked_up.num_qubits(), device.num_qubits()) << device.name;
        EXPECT_EQ(looked_up.num_couplers(), device.num_couplers()) << device.name;
    }
    // The whole name must parse, and the qubit count must fit an int.
    for (const std::string name :
         {"hexagon99", "grid3x3junk", "grid 3x3", "line5.5", "grid3x", "gridx3", "grid3x3x3",
          "line", "line-5", "ring+6", "heavyhex3x", "grid99999999999x2", "grid50000x50000",
          "heavyhex50000x50000", "Aspen4"}) {
        try {
            (void)arch::by_name(name);
            ADD_FAILURE() << "loaded '" << name << "'";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("'" + name + "'"), std::string::npos)
                << e.what();
        }
    }
    EXPECT_FALSE(arch::known_names().empty());
}

}  // namespace
}  // namespace qubikos
