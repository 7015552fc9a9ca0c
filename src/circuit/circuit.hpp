// Quantum circuit: a qubit count plus an ordered gate sequence.
#pragma once

#include <vector>

#include "circuit/gate.hpp"

namespace qubikos {

class circuit {
public:
    circuit() = default;
    explicit circuit(int num_qubits);

    [[nodiscard]] int num_qubits() const { return num_qubits_; }
    [[nodiscard]] std::size_t size() const { return gates_.size(); }
    [[nodiscard]] bool empty() const { return gates_.empty(); }
    [[nodiscard]] const std::vector<gate>& gates() const { return gates_; }
    [[nodiscard]] const gate& operator[](std::size_t i) const { return gates_[i]; }

    /// Appends a gate; throws if an operand is out of range.
    void append(const gate& g);
    /// Inserts a gate before position `index` (index == size() appends).
    void insert(std::size_t index, const gate& g);
    /// Appends every gate of `other` (qubit counts must not shrink).
    void extend(const circuit& other);

    /// Removes every gate, keeping the qubit count and the gate storage
    /// capacity — the reuse hook of per-trial emission arenas.
    void clear_gates() { gates_.clear(); }

    [[nodiscard]] std::size_t num_two_qubit_gates() const;
    [[nodiscard]] std::size_t num_swap_gates() const;
    [[nodiscard]] std::size_t num_single_qubit_gates() const;

    /// Circuit depth counting every gate as one time step (gates on
    /// disjoint qubits may share a step).
    [[nodiscard]] int depth() const;

private:
    void check_gate(const gate& g) const;

    int num_qubits_ = 0;
    std::vector<gate> gates_;
};

}  // namespace qubikos
