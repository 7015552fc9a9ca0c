#include "circuit/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace qubikos {

circuit::circuit(int num_qubits) : num_qubits_(num_qubits) {
    if (num_qubits < 0) throw std::invalid_argument("circuit: negative qubit count");
}

void circuit::check_gate(const gate& g) const {
    if (g.q0 < 0 || g.q0 >= num_qubits_ || (g.is_two_qubit() && (g.q1 < 0 || g.q1 >= num_qubits_))) {
        throw std::out_of_range("circuit: gate operand out of range: " + g.str());
    }
}

void circuit::append(const gate& g) {
    check_gate(g);
    gates_.push_back(g);
}

void circuit::insert(std::size_t index, const gate& g) {
    if (index > gates_.size()) throw std::out_of_range("circuit::insert: bad index");
    check_gate(g);
    gates_.insert(gates_.begin() + static_cast<std::ptrdiff_t>(index), g);
}

void circuit::extend(const circuit& other) {
    if (other.num_qubits() > num_qubits_) {
        throw std::invalid_argument("circuit::extend: other circuit has more qubits");
    }
    for (const auto& g : other.gates()) append(g);
}

std::size_t circuit::num_two_qubit_gates() const {
    return static_cast<std::size_t>(
        std::count_if(gates_.begin(), gates_.end(), [](const gate& g) { return g.is_two_qubit(); }));
}

std::size_t circuit::num_swap_gates() const {
    return static_cast<std::size_t>(
        std::count_if(gates_.begin(), gates_.end(), [](const gate& g) { return g.is_swap(); }));
}

std::size_t circuit::num_single_qubit_gates() const {
    return gates_.size() - num_two_qubit_gates();
}

int circuit::depth() const {
    std::vector<int> ready(static_cast<std::size_t>(num_qubits_), 0);
    int depth = 0;
    for (const auto& g : gates_) {
        int start = ready[static_cast<std::size_t>(g.q0)];
        if (g.is_two_qubit()) start = std::max(start, ready[static_cast<std::size_t>(g.q1)]);
        const int finish = start + 1;
        ready[static_cast<std::size_t>(g.q0)] = finish;
        if (g.is_two_qubit()) ready[static_cast<std::size_t>(g.q1)] = finish;
        depth = std::max(depth, finish);
    }
    return depth;
}

}  // namespace qubikos
