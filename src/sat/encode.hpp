// CIRCUIT-SAT encoding (Figure 2 + the output clause of §2).
//
// f(C) has one variable per signal net; we allocate one variable per
// network node (variable v == NodeId v — kOutput markers get a variable
// constrained equal to their fanin, matching the hypergraph view where
// outputs are nodes). Each gate contributes the characteristic clauses of
// Figure 2; finally one clause asserts that at least one primary output
// is 1.
#pragma once

#include "netlist/network.hpp"
#include "sat/cnf.hpp"

namespace cwatpg::sat {

/// Clauses for one gate: output variable `z`, fanin variables `ins`.
/// Supports AND/NAND/OR/NOR/NOT/BUF of any arity and 2-input XOR/XNOR
/// (wider XORs must be decomposed first; throws std::invalid_argument).
void add_gate_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> ins);

/// Clauses for one network node of type `type` with variable `z`, exactly
/// as encode_constraints emits them: none for a kInput, a unit clause for a
/// constant, BUF equality with its one fanin for a kOutput marker, and
/// add_gate_clauses for a logic gate. Lets encoders that number nodes
/// themselves (fault/atpg_circuit.hpp) share the one node encoding.
void add_node_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> fanins);

/// Encodes CIRCUIT-SAT(C): all gate clauses, unit clauses for constants,
/// equality clauses for kOutput markers, plus the clause (o1 ∨ … ∨ op).
/// Throws std::invalid_argument if the circuit has no primary output.
Cnf encode_circuit_sat(const net::Network& net);

/// Gate clauses only — no output clause. Used when the caller adds its own
/// objective (e.g. a specific output forced to a value).
Cnf encode_constraints(const net::Network& net);

}  // namespace cwatpg::sat
