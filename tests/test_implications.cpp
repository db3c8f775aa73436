#include <gtest/gtest.h>

#include "fault/atpg_circuit.hpp"
#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "sat/cache_sat.hpp"
#include "sat/encode.hpp"
#include "sat/implications.hpp"
#include "sat/solver.hpp"

namespace cwatpg::sat {
namespace {

TEST(UnitPropagate, ChainImplication) {
  Cnf f(4);
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(1), pos(2)});
  f.add_clause({neg(2), pos(3)});
  std::vector<Lit> implied;
  const Lit a[] = {pos(0)};
  ASSERT_TRUE(unit_propagate(f, a, implied));
  ASSERT_EQ(implied.size(), 3u);
  EXPECT_EQ(implied[0], pos(1));
  EXPECT_EQ(implied[2], pos(3));
}

TEST(UnitPropagate, DetectsConflict) {
  Cnf f(2);
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(0), neg(1)});
  std::vector<Lit> implied;
  const Lit a[] = {pos(0)};
  EXPECT_FALSE(unit_propagate(f, a, implied));
}

TEST(UnitPropagate, UnitClausesFireWithoutAssumptions) {
  Cnf f(2);
  f.add_clause({pos(0)});
  f.add_clause({neg(0), pos(1)});
  std::vector<Lit> implied;
  ASSERT_TRUE(unit_propagate(f, {}, implied));
  EXPECT_EQ(implied.size(), 2u);
}

TEST(UnitPropagate, ConflictingAssumptions) {
  Cnf f(1);
  std::vector<Lit> implied;
  const Lit a[] = {pos(0), neg(0)};
  EXPECT_FALSE(unit_propagate(f, a, implied));
}

TEST(StaticImplications, LearnsTransitiveBinaries) {
  // 0 -> 1 -> 2: propagating 0 implies 2, so (~0 ∨ 2) is learned.
  Cnf f(3);
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(1), pos(2)});
  ImplicationStats stats;
  const Cnf g = add_static_implications(f, &stats);
  EXPECT_GT(stats.binaries_added, 0u);
  bool found = false;
  for (const std::span<const Lit> c : g.clauses())
    if (c.size() == 2 &&
        ((c[0] == neg(0) && c[1] == pos(2)) ||
         (c[0] == pos(2) && c[1] == neg(0))))
      found = true;
  EXPECT_TRUE(found);
}

TEST(StaticImplications, SkipsExistingBinaries) {
  Cnf f(2);
  f.add_clause({neg(0), pos(1)});
  ImplicationStats stats;
  add_static_implications(f, &stats);
  EXPECT_EQ(stats.binaries_added, 0u);  // the only implication is direct
}

TEST(StaticImplications, FailedLiteralBecomesUnit) {
  // Propagating x0 conflicts => learn (~x0).
  Cnf f(2);
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(0), neg(1)});
  ImplicationStats stats;
  const Cnf g = add_static_implications(f, &stats);
  EXPECT_EQ(stats.failed_literals, 1u);
  bool unit = false;
  for (const std::span<const Lit> c : g.clauses())
    if (c.size() == 1 && c[0] == neg(0)) unit = true;
  EXPECT_TRUE(unit);
}

TEST(StaticImplications, ProvesUnsatWhenBothFail) {
  Cnf f(2);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({pos(0), neg(1)});
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(0), neg(1)});
  ImplicationStats stats;
  add_static_implications(f, &stats);
  EXPECT_TRUE(stats.proved_unsat);
}

TEST(StaticImplications, PreservesSatisfiability) {
  for (const net::Network& n :
       {gen::c17(), net::decompose(gen::comparator(3))}) {
    const Cnf f = encode_circuit_sat(n);
    const Cnf g = add_static_implications(f);
    EXPECT_EQ(solve_cnf(f).status, solve_cnf(g).status);
    // And every model of g is a model of f (g only adds consequences).
    const auto r = solve_cnf(g);
    if (r.status == SolveStatus::kSat) {
      EXPECT_TRUE(f.eval(r.model));
    }
  }
}

TEST(StaticImplications, LearnedClausesAreConsequences) {
  // Check semantic soundness by brute force on a small formula: every
  // learned clause must hold in every model of the original.
  const net::Network n = gen::fig4a_network();
  const Cnf f = encode_constraints(n);
  const Cnf g = add_static_implications(f);
  for (std::uint64_t m = 0; m < (1ULL << f.num_vars()); ++m) {
    std::vector<bool> assignment(f.num_vars());
    for (Var v = 0; v < f.num_vars(); ++v) assignment[v] = (m >> v) & 1;
    if (!f.eval(assignment)) continue;
    EXPECT_TRUE(g.eval(assignment)) << "model " << m;
  }
}

TEST(StaticImplications, ShrinksCacheSatTreeOnAtpgInstances) {
  // The paper's point: the implication preprocessing is one mechanism
  // that tames backtracking. On UNSAT (redundant-fault) miters the
  // augmented formula must never enlarge — and typically shrinks — the
  // Algorithm 1 tree.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  const auto b = n.add_input("b");
  n.add_output(n.add_gate(net::GateType::kAnd, {g, b}), "o");
  const fault::AtpgCircuit atpg = fault::build_atpg_circuit(
      n, {g, fault::StuckAtFault::kStem, true});
  Cnf f = encode_circuit_sat(atpg.miter);
  f.add_clause({Lit(atpg.good_fault_net, true)});
  const Cnf aug = add_static_implications(f);

  CacheSatConfig cfg;
  cfg.early_sat = false;
  const auto before = cache_sat(f, identity_order(f), cfg);
  // The augmented formula has the same variables; reuse the order.
  const auto after = cache_sat(aug, identity_order(aug), cfg);
  EXPECT_EQ(before.status, after.status);
  EXPECT_LE(after.stats.nodes, before.stats.nodes);
}

TEST(StaticImplications, LearnBudgetRespected) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(4));
  const Cnf f = encode_circuit_sat(n);
  ImplicationConfig cfg;
  cfg.max_learned = 5;
  ImplicationStats stats;
  const Cnf g = add_static_implications(f, &stats, cfg);
  EXPECT_LE(stats.binaries_added + stats.failed_literals, 5u);
  EXPECT_LE(g.num_clauses(), f.num_clauses() + 5);
}

}  // namespace
}  // namespace cwatpg::sat
