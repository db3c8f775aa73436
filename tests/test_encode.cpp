#include <gtest/gtest.h>

#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "sat/encode.hpp"
#include "util/rng.hpp"

namespace cwatpg::sat {
namespace {

/// Property: for every complete input assignment, f(C)'s gate clauses are
/// satisfied exactly when every variable equals its simulated node value.
void expect_encoding_consistent(const net::Network& n, std::uint64_t seed) {
  const Cnf cnf = encode_constraints(n);
  ASSERT_EQ(cnf.num_vars(), n.node_count());
  Rng rng(seed);
  const std::size_t trials = n.inputs().size() <= 8
                                 ? (std::size_t{1} << n.inputs().size())
                                 : 64;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<bool> pattern(n.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i)
      pattern[i] = n.inputs().size() <= 8 ? ((t >> i) & 1) : rng.chance(0.5);
    const auto values = n.eval(pattern);
    std::vector<bool> assignment(values.begin(), values.end());
    EXPECT_TRUE(cnf.eval(assignment)) << "trial " << t;
    // Flipping any gate variable must violate some clause.
    for (net::NodeId id = 0; id < n.node_count(); ++id) {
      if (n.type(id) == net::GateType::kInput) continue;
      assignment[id] = !assignment[id];
      EXPECT_FALSE(cnf.eval(assignment)) << "node " << id;
      assignment[id] = !assignment[id];
    }
    if (n.inputs().size() > 8 && t > 16) break;
  }
}

TEST(Encode, AndGateClauses) {
  Cnf f(3);
  const Var ins[] = {0, 1};
  add_gate_clauses(f, net::GateType::kAnd, 2, ins);
  EXPECT_EQ(f.num_clauses(), 3u);
  // z=1 requires a=b=1.
  const std::vector<bool> good = {true, true, true};
  const std::vector<bool> bad = {false, true, true};
  EXPECT_TRUE(f.eval(good));
  EXPECT_FALSE(f.eval(bad));
}

TEST(Encode, Figure2Shapes) {
  // The paper's Figure 2: a 2-input AND has 3 clauses, NOT has 2.
  Cnf f(5);
  const Var two[] = {0, 1};
  add_gate_clauses(f, net::GateType::kAnd, 2, two);
  EXPECT_EQ(f.num_clauses(), 3u);
  Cnf g(2);
  const Var one[] = {0};
  add_gate_clauses(g, net::GateType::kNot, 1, one);
  EXPECT_EQ(g.num_clauses(), 2u);
}

TEST(Encode, XorRequiresTwoInputs) {
  Cnf f(4);
  const Var three[] = {0, 1, 2};
  EXPECT_THROW(add_gate_clauses(f, net::GateType::kXor, 3, three),
               std::invalid_argument);
}

TEST(Encode, ConsistencyC17) { expect_encoding_consistent(gen::c17(), 1); }

TEST(Encode, ConsistencyAdder) {
  expect_encoding_consistent(gen::ripple_carry_adder(3), 2);
}

TEST(Encode, ConsistencyDecomposedAlu) {
  expect_encoding_consistent(net::decompose(gen::simple_alu(3)), 3);
}

TEST(Encode, ConsistencyAllGateTypes) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  n.add_output(n.add_gate(net::GateType::kAnd, {a, b}), "and");
  n.add_output(n.add_gate(net::GateType::kNand, {a, b}), "nand");
  n.add_output(n.add_gate(net::GateType::kOr, {a, b}), "or");
  n.add_output(n.add_gate(net::GateType::kNor, {a, b}), "nor");
  n.add_output(n.add_gate(net::GateType::kXor, {a, b}), "xor");
  n.add_output(n.add_gate(net::GateType::kXnor, {a, b}), "xnor");
  n.add_output(n.add_gate(net::GateType::kNot, {a}), "not");
  n.add_output(n.add_gate(net::GateType::kBuf, {b}), "buf");
  expect_encoding_consistent(n, 4);
}

TEST(Encode, ConsistencyWithConstants) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto c1 = n.add_const(true);
  const auto c0 = n.add_const(false);
  n.add_output(n.add_gate(net::GateType::kAnd, {a, c1}), "o1");
  n.add_output(n.add_gate(net::GateType::kOr, {a, c0}), "o2");
  expect_encoding_consistent(n, 5);
}

TEST(Encode, CircuitSatAddsObjectiveClause) {
  const net::Network n = gen::c17();
  const Cnf with = encode_circuit_sat(n);
  const Cnf without = encode_constraints(n);
  EXPECT_EQ(with.num_clauses(), without.num_clauses() + 1);
  // The last clause mentions exactly the PO variables, positively.
  const std::span<const Lit> obj = with.clause(with.num_clauses() - 1);
  EXPECT_EQ(obj.size(), n.outputs().size());
  for (Lit l : obj) EXPECT_FALSE(l.negated());
}

TEST(Encode, CircuitSatNoOutputsThrows) {
  net::Network n;
  n.add_input("a");
  EXPECT_THROW(encode_circuit_sat(n), std::invalid_argument);
}

TEST(Encode, OneVariablePerNode) {
  // "f(C) has one variable for each signal net": variable v == NodeId v.
  const net::Network n = net::decompose(gen::comparator(3));
  const Cnf cnf = encode_circuit_sat(n);
  EXPECT_EQ(cnf.num_vars(), n.node_count());
}

TEST(Encode, Formula41MatchesPaperShape) {
  // 13 clauses (12 gate clauses + the output unit clause) over 9 vars.
  const Cnf f = gen::formula41();
  EXPECT_EQ(f.num_vars(), 9u);
  EXPECT_EQ(f.num_clauses(), 13u);
}

TEST(Encode, Formula41AgreesWithFig4aNetwork) {
  // The hand-written formula and the explicit-inverter network represent
  // the same function of (a..e): for each input assignment, the formula is
  // satisfiable with i bound to the simulated output value and
  // unsatisfiable with the complement.
  const net::Network n = gen::fig4a_network();
  const Cnf f = gen::formula41();  // includes output clause (i)
  for (int t = 0; t < 32; ++t) {
    std::vector<bool> pattern(5);
    for (int i = 0; i < 5; ++i) pattern[i] = (t >> i) & 1;
    const auto values = n.eval(pattern);
    const bool out = values[n.outputs()[0]];
    // Build the formula assignment a..i from simulated values.
    std::vector<bool> assign(9);
    assign[gen::kA] = pattern[0];
    assign[gen::kB] = pattern[1];
    assign[gen::kC] = pattern[2];
    assign[gen::kD] = pattern[3];
    assign[gen::kE] = pattern[4];
    assign[gen::kF] = values[*n.find("f")];
    assign[gen::kG] = values[*n.find("g")];
    assign[gen::kH] = values[*n.find("h")];
    assign[gen::kI] = values[*n.find("i")];
    EXPECT_EQ(f.eval(assign), out) << "minterm " << t;
  }
}

}  // namespace
}  // namespace cwatpg::sat
