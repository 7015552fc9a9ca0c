// Tests for the circuit IR: gates, circuits, dependency DAG, mapping,
// interaction graphs.
#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/interaction.hpp"
#include "circuit/mapping.hpp"
#include "util/rng.hpp"

namespace qubikos {
namespace {

TEST(gate, constructors_and_validation) {
    const gate h = gate::h(2);
    EXPECT_FALSE(h.is_two_qubit());
    EXPECT_TRUE(h.acts_on(2));
    EXPECT_FALSE(h.acts_on(1));

    const gate cx = gate::cx(0, 3);
    EXPECT_TRUE(cx.is_two_qubit());
    EXPECT_FALSE(cx.is_swap());
    EXPECT_TRUE(cx.acts_on(0));
    EXPECT_TRUE(cx.acts_on(3));

    EXPECT_TRUE(gate::swap_gate(1, 2).is_swap());
    EXPECT_THROW(gate::two(gate_kind::cx, 1, 1), std::invalid_argument);
    EXPECT_THROW(gate::two(gate_kind::h, 0, 1), std::invalid_argument);
    EXPECT_THROW(gate::single(gate_kind::cx, 0), std::invalid_argument);
    EXPECT_THROW(gate::single(gate_kind::h, -1), std::invalid_argument);
}

TEST(gate, names_round_trip) {
    for (const gate_kind kind :
         {gate_kind::h, gate_kind::x, gate_kind::y, gate_kind::z, gate_kind::s, gate_kind::sdg,
          gate_kind::t, gate_kind::tdg, gate_kind::rx, gate_kind::ry, gate_kind::rz,
          gate_kind::cx, gate_kind::cz, gate_kind::swap}) {
        EXPECT_EQ(gate_kind_from_name(gate_name(kind)), kind);
    }
    EXPECT_THROW((void)gate_kind_from_name("ccx"), std::invalid_argument);
}

TEST(circuit, append_and_counters) {
    circuit c(3);
    c.append(gate::h(0));
    c.append(gate::cx(0, 1));
    c.append(gate::swap_gate(1, 2));
    c.append(gate::rz(2, 0.5));
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.num_two_qubit_gates(), 2u);
    EXPECT_EQ(c.num_swap_gates(), 1u);
    EXPECT_EQ(c.num_single_qubit_gates(), 2u);
    EXPECT_THROW(c.append(gate::cx(0, 5)), std::out_of_range);
}

TEST(circuit, insert_and_extend) {
    circuit c(2);
    c.append(gate::cx(0, 1));
    c.insert(0, gate::h(0));
    EXPECT_EQ(c[0].kind, gate_kind::h);
    EXPECT_THROW(c.insert(5, gate::h(0)), std::out_of_range);

    circuit other(2);
    other.append(gate::x(1));
    c.extend(other);
    EXPECT_EQ(c.size(), 3u);
    circuit bigger(3);
    EXPECT_THROW(c.extend(bigger), std::invalid_argument);
}

TEST(circuit, depth) {
    circuit c(3);
    EXPECT_EQ(c.depth(), 0);
    c.append(gate::cx(0, 1));  // step 1
    c.append(gate::h(2));      // parallel, step 1
    EXPECT_EQ(c.depth(), 1);
    c.append(gate::cx(1, 2));  // step 2 (waits on both)
    EXPECT_EQ(c.depth(), 2);
    c.append(gate::h(0));      // parallel with step 2
    EXPECT_EQ(c.depth(), 2);
}

// The paper's Fig. 1 circuit: H q0; g1(q0,q2) as CX; H q1; g3(q1,q2)...
// We reproduce the dependency chain example: gates g3 -> g4 -> g5 share
// qubits pairwise.
TEST(dag, figure1_dependencies) {
    circuit c(3);
    c.append(gate::h(0));
    c.append(gate::cx(0, 2));  // node 0 (g1)
    c.append(gate::cx(0, 1));  // node 1 (g2)  depends on node 0 via q0
    c.append(gate::cx(1, 2));  // node 2 (g3)  depends on 0 (q2) and 1 (q1)
    c.append(gate::cx(0, 1));  // node 3 (g4)  depends on 1, 2
    const gate_dag dag(c);
    ASSERT_EQ(dag.num_nodes(), 4);
    EXPECT_TRUE(dag.preds(0).empty());
    EXPECT_EQ(dag.preds(1), std::vector<int>{0});
    EXPECT_EQ(dag.ancestors(2), (std::vector<char>{1, 1, 0, 0}));
    EXPECT_EQ(dag.preds(3), (std::vector<int>{1, 2}));
    EXPECT_NE(dag.ancestors(3)[0], 0);  // transitive through 1/2
    EXPECT_EQ(dag.ancestors(0), std::vector<char>(4, 0));
    for (int node = 1; node < 4; ++node) EXPECT_FALSE(dag.preds(node).empty());
    EXPECT_EQ(dag.circuit_index(0), 1u);  // skips the H gate
}

TEST(dag, parallel_gates_have_no_dependency) {
    circuit c(4);
    c.append(gate::cx(0, 1));
    c.append(gate::cx(2, 3));
    const gate_dag dag(c);
    EXPECT_EQ(dag.ancestors(1), (std::vector<char>{0, 0}));
    EXPECT_TRUE(dag.preds(0).empty());
    EXPECT_TRUE(dag.preds(1).empty());
    EXPECT_EQ(dag.num_edges(), 0u);
}

TEST(dag, asap_levels) {
    circuit c(3);
    c.append(gate::cx(0, 1));  // level 0
    c.append(gate::cx(1, 2));  // level 1
    c.append(gate::cx(0, 2));  // level 2
    const auto levels = gate_dag(c).asap_levels();
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 2}));
}

TEST(dag, ancestors_bitmap) {
    circuit c(4);
    c.append(gate::cx(0, 1));  // 0
    c.append(gate::cx(2, 3));  // 1 (independent)
    c.append(gate::cx(1, 2));  // 2 (depends on both)
    const gate_dag dag(c);
    const auto anc = dag.ancestors(2);
    EXPECT_TRUE(anc[0]);
    EXPECT_TRUE(anc[1]);
    EXPECT_FALSE(anc[2]);
    EXPECT_THROW(dag.ancestors(7), std::out_of_range);
}

TEST(mapping, identity_and_random) {
    const mapping id = mapping::identity(3, 5);
    EXPECT_EQ(id.physical(2), 2);
    EXPECT_EQ(id.program_at(2), 2);
    EXPECT_EQ(id.program_at(4), -1);

    rng random(3);
    const mapping r = mapping::random(4, 6, random);
    std::set<int> images;
    for (int q = 0; q < 4; ++q) {
        const int p = r.physical(q);
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 6);
        images.insert(p);
        EXPECT_EQ(r.program_at(p), q);
    }
    EXPECT_EQ(images.size(), 4u);
}

TEST(mapping, swap_physical) {
    mapping m = mapping::identity(2, 3);
    m.swap_physical(0, 2);  // q0 moves to p2; p0 becomes empty? p2 was empty
    EXPECT_EQ(m.physical(0), 2);
    EXPECT_EQ(m.program_at(0), -1);
    EXPECT_EQ(m.program_at(2), 0);
    m.swap_physical(1, 2);
    EXPECT_EQ(m.physical(0), 1);
    EXPECT_EQ(m.physical(1), 2);
    EXPECT_THROW(m.swap_physical(0, 0), std::invalid_argument);
    EXPECT_THROW(m.swap_physical(0, 9), std::out_of_range);
}

TEST(mapping, from_program_to_physical_validation) {
    EXPECT_THROW(mapping::from_program_to_physical({0, 0}, 3), std::invalid_argument);
    EXPECT_THROW(mapping::from_program_to_physical({0, 5}, 3), std::invalid_argument);
    const mapping m = mapping::from_program_to_physical({2, 0}, 3);
    EXPECT_EQ(m.physical(0), 2);
    EXPECT_EQ(m.program_at(0), 1);
    EXPECT_THROW(mapping(5, 3), std::invalid_argument);
}

TEST(interaction, graph_of_circuit) {
    circuit c(4);
    c.append(gate::h(0));
    c.append(gate::cx(0, 1));
    c.append(gate::cx(0, 1));  // duplicate pair: one edge
    c.append(gate::cx(1, 2));
    const graph gi = interaction_graph(c);
    EXPECT_EQ(gi.num_edges(), 2);
    EXPECT_TRUE(gi.has_edge(0, 1));
    EXPECT_TRUE(gi.has_edge(1, 2));
    EXPECT_EQ(gi.degree(3), 0);

    const graph prefix = interaction_graph(c, 0, 2);
    EXPECT_EQ(prefix.num_edges(), 1);
    EXPECT_THROW(interaction_graph(c, 3, 2), std::out_of_range);
}

}  // namespace
}  // namespace qubikos
