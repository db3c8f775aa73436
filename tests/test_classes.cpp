#include <gtest/gtest.h>

#include "fault/atpg_circuit.hpp"
#include "gen/trees.hpp"
#include "sat/classes.hpp"
#include "sat/encode.hpp"
#include "sat/solver.hpp"
#include "sat/twosat.hpp"
#include "util/lp.hpp"
#include "util/rng.hpp"

namespace cwatpg::sat {
namespace {

Cnf random_2cnf(Var vars, std::size_t clauses, std::uint64_t seed) {
  Rng rng(seed);
  Cnf f(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    const Lit a(static_cast<Var>(rng.below(vars)), rng.chance(0.5));
    const Lit b(static_cast<Var>(rng.below(vars)), rng.chance(0.5));
    Clause cl{a, b};
    std::sort(cl.begin(), cl.end());
    cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
    f.add_clause(cl);
  }
  return f;
}

// ------------------------------------------------------------------ 2-SAT

TEST(TwoSat, SimpleSatisfiable) {
  TwoSat s(2);
  s.add_or(pos(0), pos(1));
  s.add_or(neg(0), pos(1));
  const auto model = s.solve();
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE((*model)[1]);
}

TEST(TwoSat, SimpleUnsatisfiable) {
  TwoSat s(1);
  s.add_unit(pos(0));
  s.add_unit(neg(0));
  EXPECT_FALSE(s.solve().has_value());
}

TEST(TwoSat, ImplicationChainForces) {
  TwoSat s(5);
  s.add_unit(pos(0));
  for (Var v = 0; v + 1 < 5; ++v) s.add_implies(pos(v), pos(v + 1));
  const auto model = s.solve();
  ASSERT_TRUE(model.has_value());
  for (Var v = 0; v < 5; ++v) EXPECT_TRUE((*model)[v]);
}

TEST(TwoSat, OutOfRangeThrows) {
  TwoSat s(2);
  EXPECT_THROW(s.add_or(pos(0), pos(7)), std::invalid_argument);
}

TEST(TwoSat, AgreesWithCdclOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Cnf f = random_2cnf(8, 18, seed);
    const auto two = solve_2sat(f);
    const auto cdcl = solve_cnf(f);
    EXPECT_EQ(two.has_value(), cdcl.status == SolveStatus::kSat)
        << "seed " << seed;
    if (two) {
      EXPECT_TRUE(f.eval(*two));
    }
  }
}

TEST(TwoSat, RejectsWideClauses) {
  Cnf f(3);
  f.add_clause({pos(0), pos(1), pos(2)});
  EXPECT_FALSE(is_2sat(f));
  EXPECT_THROW(solve_2sat(f), std::invalid_argument);
}

// ------------------------------------------------------------------- LP

TEST(Lp, TrivialFeasible) {
  // x0 + x1 <= 1, 0 <= x <= 1.
  const auto x = lp_feasible({{1, 1}}, {1}, {1, 1});
  ASSERT_TRUE(x.has_value());
  EXPECT_LE((*x)[0] + (*x)[1], 1.0 + 1e-6);
}

TEST(Lp, InfeasibleByBounds) {
  // -x0 <= -2 (x0 >= 2) but x0 <= 1.
  EXPECT_FALSE(lp_feasible({{-1}}, {-2}, {1}).has_value());
}

TEST(Lp, EqualityLikeSandwich) {
  // 0.5 <= x0 <= 0.5 expressed as x0 <= 0.5 and -x0 <= -0.5.
  const auto x = lp_feasible({{1}, {-1}}, {0.5, -0.5}, {1});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 0.5, 1e-6);
}

TEST(Lp, SolutionSatisfiesAllConstraints) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<double>> a;
    std::vector<double> b;
    for (int r = 0; r < 6; ++r) {
      std::vector<double> row(4);
      for (auto& v : row) v = rng.range(-2, 2);
      a.push_back(row);
      b.push_back(static_cast<double>(rng.range(-1, 3)));
    }
    const auto x = lp_feasible(a, b, std::vector<double>(4, 1.0));
    if (!x) continue;
    for (std::size_t r = 0; r < a.size(); ++r) {
      double lhs = 0;
      for (std::size_t j = 0; j < 4; ++j) lhs += a[r][j] * (*x)[j];
      EXPECT_LE(lhs, b[r] + 1e-6) << "trial " << trial << " row " << r;
    }
    for (double v : *x) {
      EXPECT_GE(v, -1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

// --------------------------------------------------------------- classes

TEST(Classes, HornDetection) {
  Cnf f(3);
  f.add_clause({neg(0), neg(1), pos(2)});
  f.add_clause({neg(2)});
  EXPECT_TRUE(is_horn(f));
  f.add_clause({pos(0), pos(1)});
  EXPECT_FALSE(is_horn(f));
}

TEST(Classes, ReverseHornDetection) {
  Cnf f(3);
  f.add_clause({pos(0), pos(1), neg(2)});
  EXPECT_TRUE(is_reverse_horn(f));
  f.add_clause({neg(0), neg(1)});
  EXPECT_FALSE(is_reverse_horn(f));
}

TEST(Classes, HiddenHornFindsRenaming) {
  // (x0 ∨ x1)(x0 ∨ x2): flipping x0 makes it Horn.
  Cnf f(3);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({pos(0), pos(2)});
  const auto flip = hidden_horn_renaming(f);
  ASSERT_TRUE(flip.has_value());
  // Verify: after renaming, every clause has <= 1 positive literal.
  for (const std::span<const Lit> c : f.clauses()) {
    std::size_t positives = 0;
    for (Lit l : c)
      if (l.negated() == (*flip)[l.var()]) ++positives;
    EXPECT_LE(positives, 1u);
  }
}

TEST(Classes, HornIsTriviallyHiddenHorn) {
  Cnf f(3);
  f.add_clause({neg(0), neg(1), pos(2)});
  EXPECT_TRUE(hidden_horn_renaming(f).has_value());
}

TEST(Classes, NotHiddenHorn) {
  // All 4 sign patterns on (x0, x1) — no renaming can kill all positives.
  Cnf f(2);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({pos(0), neg(1)});
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(0), neg(1)});
  // Each is a 2-clause though — renaming needs <= 1 positive per clause;
  // with all four sign patterns present it is impossible.
  EXPECT_FALSE(hidden_horn_renaming(f).has_value());
}

TEST(Classes, QHornAcceptsHorn2SatMixture) {
  // Horn part on {0,1,2}, 2-SAT part on {3,4}: q-Horn via a=0 / a=1/2.
  Cnf f(5);
  f.add_clause({neg(0), neg(1), pos(2)});
  f.add_clause({pos(3), pos(4)});
  f.add_clause({neg(3), pos(4)});
  const QHorn q = q_horn(f);
  EXPECT_TRUE(q.is_qhorn);
  // The witness must satisfy every clause inequality.
  for (const std::span<const Lit> c : f.clauses()) {
    double sum = 0;
    for (Lit l : c)
      sum += l.negated() ? 1.0 - q.alpha[l.var()] : q.alpha[l.var()];
    EXPECT_LE(sum, 1.0 + 1e-6);
  }
}

TEST(Classes, QHornRejectsFullSignPatternTriples) {
  // Classic non-q-Horn core: three 3-clauses over {0,1,2} whose LP demands
  // sum over each of the clause patterns <= 1 with conflicting weights.
  Cnf f(3);
  f.add_clause({pos(0), pos(1), pos(2)});
  f.add_clause({neg(0), neg(1), pos(2)});
  f.add_clause({pos(0), neg(1), neg(2)});
  f.add_clause({neg(0), pos(1), neg(2)});
  EXPECT_FALSE(q_horn(f).is_qhorn);
}

TEST(Classes, QHornSizeGuard) {
  Cnf f(1000);
  EXPECT_THROW(q_horn(f, 400), std::invalid_argument);
}

TEST(Classes, AtpgSatOfExampleIsNotQHorn) {
  // §3.1's punchline on the paper's own example: the ATPG-SAT formula for
  // f s-a-1 on Figure 4(a) is not q-Horn.
  const net::Network n = gen::fig4a_network();
  const fault::AtpgCircuit atpg = fault::build_atpg_circuit(
      n, {*n.find("f"), fault::StuckAtFault::kStem, true});
  const Cnf f = encode_circuit_sat(atpg.miter);
  const ClassReport report = classify(f);
  EXPECT_FALSE(report.horn);
  EXPECT_FALSE(report.two_sat);
  EXPECT_FALSE(report.qhorn);
  EXPECT_TRUE(report.qhorn_checked);
}

TEST(Classes, ToStringFormats) {
  ClassReport r;
  r.qhorn_checked = true;
  EXPECT_EQ(to_string(r), "none");
  r.horn = r.qhorn = true;
  EXPECT_EQ(to_string(r), "horn,q-horn");
}

class QHornSubsumption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QHornSubsumption, TwoSatAlwaysQHorn) {
  // 2-SAT ⊂ q-Horn (a = 1/2 everywhere): the LP must always be feasible.
  const Cnf f = random_2cnf(8, 14, GetParam() + 900);
  EXPECT_TRUE(q_horn(f).is_qhorn);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QHornSubsumption,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace cwatpg::sat
