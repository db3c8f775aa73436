#include "sat/encode.hpp"

#include <stdexcept>
#include <type_traits>

namespace cwatpg::sat {

// Node ids are used as variables directly (variable v == NodeId v).
static_assert(std::is_same_v<net::NodeId, Var>);

void add_gate_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> ins) {
  using net::GateType;
  switch (type) {
    case GateType::kBuf: {
      cnf.add_clause({pos(ins[0]), neg(z)});
      cnf.add_clause({neg(ins[0]), pos(z)});
      return;
    }
    case GateType::kNot: {
      cnf.add_clause({pos(ins[0]), pos(z)});
      cnf.add_clause({neg(ins[0]), neg(z)});
      return;
    }
    case GateType::kAnd:
    case GateType::kNand: {
      const Lit zt = type == GateType::kAnd ? pos(z) : neg(z);
      // Each input low forces output "false"; all inputs high force "true".
      Clause all;
      all.reserve(ins.size() + 1);
      for (Var a : ins) {
        cnf.add_clause({pos(a), ~zt});
        all.push_back(neg(a));
      }
      all.push_back(zt);
      cnf.add_clause(std::move(all));
      return;
    }
    case GateType::kOr:
    case GateType::kNor: {
      const Lit zt = type == GateType::kOr ? pos(z) : neg(z);
      Clause all;
      all.reserve(ins.size() + 1);
      for (Var a : ins) {
        cnf.add_clause({neg(a), zt});
        all.push_back(pos(a));
      }
      all.push_back(~zt);
      cnf.add_clause(std::move(all));
      return;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      if (ins.size() != 2)
        throw std::invalid_argument(
            "add_gate_clauses: XOR/XNOR must be 2-input (decompose first)");
      const bool inv = type == GateType::kXnor;
      const Var a = ins[0];
      const Var b = ins[1];
      const Lit zp = inv ? neg(z) : pos(z);
      cnf.add_clause({neg(a), neg(b), ~zp});
      cnf.add_clause({pos(a), pos(b), ~zp});
      cnf.add_clause({neg(a), pos(b), zp});
      cnf.add_clause({pos(a), neg(b), zp});
      return;
    }
    default:
      throw std::invalid_argument(
          "add_gate_clauses: type has no gate function");
  }
}

void add_node_clauses(Cnf& cnf, net::GateType type, Var z,
                      std::span<const Var> fanins) {
  switch (type) {
    case net::GateType::kInput:
      return;  // free variable
    case net::GateType::kConst0:
      cnf.add_clause({neg(z)});
      return;
    case net::GateType::kConst1:
      cnf.add_clause({pos(z)});
      return;
    case net::GateType::kOutput:
      add_gate_clauses(cnf, net::GateType::kBuf, z, fanins);
      return;
    default:
      add_gate_clauses(cnf, type, z, fanins);
      return;
  }
}

Cnf encode_constraints(const net::Network& netw) {
  Cnf cnf(static_cast<Var>(netw.node_count()));
  for (net::NodeId id = 0; id < netw.node_count(); ++id)
    add_node_clauses(cnf, netw.type(id), id, netw.fanins(id));
  return cnf;
}

Cnf encode_circuit_sat(const net::Network& netw) {
  if (netw.outputs().empty())
    throw std::invalid_argument("encode_circuit_sat: circuit has no outputs");
  Cnf cnf = encode_constraints(netw);
  Clause objective;
  for (net::NodeId po : netw.outputs()) objective.push_back(pos(po));
  cnf.add_clause(std::move(objective));
  return cnf;
}

}  // namespace cwatpg::sat
