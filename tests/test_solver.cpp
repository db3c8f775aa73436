#include <gtest/gtest.h>

#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"
#include "sat/encode.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace cwatpg::sat {
namespace {

/// Brute-force reference: tries all 2^n assignments (n <= 24).
bool brute_force_sat(const Cnf& f) {
  const Var n = f.num_vars();
  EXPECT_LE(n, 24u);
  std::vector<bool> assignment(n);
  for (std::uint64_t m = 0; m < (1ULL << n); ++m) {
    for (Var v = 0; v < n; ++v) assignment[v] = (m >> v) & 1;
    if (f.eval(assignment)) return true;
  }
  return false;
}

/// Random 3-SAT-ish formula.
Cnf random_cnf(Var vars, std::size_t clauses, std::uint64_t seed) {
  cwatpg::Rng rng(seed);
  Cnf f(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    Clause cl;
    const auto len = static_cast<std::size_t>(rng.range(1, 3));
    for (std::size_t i = 0; i < len; ++i)
      cl.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.chance(0.5)));
    std::sort(cl.begin(), cl.end());
    cl.erase(std::unique(cl.begin(), cl.end()), cl.end());
    f.add_clause(cl);
  }
  return f;
}

/// PHP(pigeons, holes): UNSAT whenever pigeons > holes.
Cnf pigeonhole(int pigeons, int holes) {
  Cnf f(static_cast<Var>(pigeons * holes));
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    f.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_clause({neg(var(p1, h)), neg(var(p2, h))});
  return f;
}

TEST(Solver, TrivialSat) {
  Cnf f(1);
  f.add_clause({pos(0)});
  const auto r = solve_cnf(f);
  EXPECT_EQ(r.status, SolveStatus::kSat);
  EXPECT_TRUE(r.model[0]);
}

TEST(Solver, TrivialUnsat) {
  Cnf f(1);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kUnsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  Cnf f(3);
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kSat);
}

TEST(Solver, UnitPropagationChain) {
  // x0 and (~x0|x1)...(~x8|x9) forces all true.
  Cnf f(10);
  f.add_clause({pos(0)});
  for (Var v = 0; v + 1 < 10; ++v) f.add_clause({neg(v), pos(v + 1)});
  const auto r = solve_cnf(f);
  EXPECT_EQ(r.status, SolveStatus::kSat);
  for (Var v = 0; v < 10; ++v) EXPECT_TRUE(r.model[v]);
  EXPECT_EQ(r.stats.decisions, 0u);
}

TEST(Solver, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): pigeon i in hole j -> var 2i+j.
  Cnf f(6);
  for (int i = 0; i < 3; ++i)
    f.add_clause({pos(2 * i), pos(2 * i + 1)});
  for (int j = 0; j < 2; ++j)
    for (int i1 = 0; i1 < 3; ++i1)
      for (int i2 = i1 + 1; i2 < 3; ++i2)
        f.add_clause({neg(2 * i1 + j), neg(2 * i2 + j)});
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kUnsat);
}

TEST(Solver, ModelSatisfiesFormula) {
  const Cnf f = random_cnf(15, 40, 7);
  const auto r = solve_cnf(f);
  if (r.status == SolveStatus::kSat) {
    EXPECT_TRUE(f.eval(r.model));
  }
}

TEST(Solver, ConflictLimitReturnsUnknown) {
  // A hard-ish pigeonhole with an absurdly low conflict budget.
  Cnf f(20);
  const int holes = 4, pigeons = 5;
  auto var = [&](int p, int h) { return static_cast<Var>(p * holes + h); };
  for (int p = 0; p < pigeons; ++p) {
    Clause c;
    for (int h = 0; h < holes; ++h) c.push_back(pos(var(p, h)));
    f.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_clause({neg(var(p1, h)), neg(var(p2, h))});
  SolverConfig cfg;
  cfg.max_conflicts = 2;
  EXPECT_EQ(solve_cnf(f, cfg).status, SolveStatus::kUnknown);
  // And with a real budget it is UNSAT.
  EXPECT_EQ(solve_cnf(f).status, SolveStatus::kUnsat);
}

TEST(Solver, LubySequenceIsCorrectAndTotal) {
  // Regression: the original subtractive descent underflowed whenever the
  // index landed on a subsequence boundary (first at i == 3), turning the
  // restart computation into an infinite loop mid-solve. Pin the sequence
  // and, implicitly, termination.
  const std::uint64_t expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1,
                                    1, 2, 4, 8, 1, 1, 2, 1, 1, 2, 4,
                                    1, 1, 2, 1, 1, 2, 4, 8, 16};
  for (std::size_t i = 0; i < std::size(expected); ++i)
    EXPECT_EQ(Solver::luby(i), expected[i]) << "at index " << i;
  // Self-similarity: Luby(2^k - 2) == 2^(k-1) (last element of each
  // complete subsequence), Luby(2^k - 1) == 1 (start of the next).
  for (std::uint64_t k = 1; k < 30; ++k) {
    EXPECT_EQ(Solver::luby((1ULL << k) - 2), 1ULL << (k - 1));
    EXPECT_EQ(Solver::luby((1ULL << k) - 1), 1u);
  }
}

TEST(Solver, AgreesWithBruteForceOnRandomFormulas) {
  int sat_count = 0, unsat_count = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    // Vary density so the sweep covers both SAT and UNSAT regions.
    const Cnf f = random_cnf(9, 14 + seed % 14, seed);
    const bool expected = brute_force_sat(f);
    const auto r = solve_cnf(f);
    ASSERT_NE(r.status, SolveStatus::kUnknown);
    EXPECT_EQ(r.status == SolveStatus::kSat, expected) << "seed " << seed;
    if (expected) {
      ++sat_count;
      EXPECT_TRUE(f.eval(r.model));
    } else {
      ++unsat_count;
    }
  }
  // The mix must actually exercise both outcomes.
  EXPECT_GT(sat_count, 5);
  EXPECT_GT(unsat_count, 5);
}

TEST(Solver, CircuitSatOnTautologyCone) {
  // OR(a, ~a) is always 1: CIRCUIT-SAT trivially satisfiable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kOr, {a, na}), "o");
  const auto r = solve_cnf(encode_circuit_sat(n));
  EXPECT_EQ(r.status, SolveStatus::kSat);
}

TEST(Solver, CircuitSatOnContradictionCone) {
  // AND(a, ~a) is always 0: CIRCUIT-SAT unsatisfiable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kAnd, {a, na}), "o");
  EXPECT_EQ(solve_cnf(encode_circuit_sat(n)).status, SolveStatus::kUnsat);
}

TEST(Solver, ModelDecodesToRealTestVector) {
  // CIRCUIT-SAT model on c17 must actually set an output to 1.
  const net::Network n = gen::c17();
  const auto r = solve_cnf(encode_circuit_sat(n));
  ASSERT_EQ(r.status, SolveStatus::kSat);
  std::vector<bool> pattern;
  for (net::NodeId pi : n.inputs()) pattern.push_back(r.model[pi]);
  const auto values = n.eval(pattern);
  bool any = false;
  for (net::NodeId po : n.outputs()) any = any || values[po];
  EXPECT_TRUE(any);
}

TEST(Solver, LargeCircuitInstanceFast) {
  const net::Network n = net::decompose(gen::simple_alu(16));
  const auto r = solve_cnf(encode_circuit_sat(n));
  EXPECT_EQ(r.status, SolveStatus::kSat);
  EXPECT_LT(r.stats.conflicts, 2000u);
}

TEST(Solver, StatsPopulated) {
  const Cnf f = random_cnf(12, 40, 3);
  Solver s(f);
  s.solve();
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(Solver, RepeatSolveConsistent) {
  const Cnf f = random_cnf(10, 30, 11);
  Solver s(f);
  const auto first = s.solve();
  const auto second = s.solve();
  EXPECT_EQ(first, second);
}

class RandomCnfAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCnfAgreement, MatchesBruteForce) {
  // Denser, larger random instances than the bulk test above.
  const Cnf f = random_cnf(12, 50, GetParam() * 977 + 5);
  const auto r = solve_cnf(f);
  ASSERT_NE(r.status, SolveStatus::kUnknown);
  EXPECT_EQ(r.status == SolveStatus::kSat, brute_force_sat(f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfAgreement,
                         ::testing::Range<std::uint64_t>(0, 20));

/// Re-arms `reused` for `f` and checks it against a fresh Solver(f, config)
/// over two solve() calls: status, model, stats and per-call stats.
/// Returns the first call's status.
SolveStatus expect_rearmed_matches_fresh(Solver& reused, const Cnf& f,
                                         const SolverConfig& config,
                                         const char* step) {
  Solver fresh(f, config);
  reused.reset(f, config);
  SolveStatus first = SolveStatus::kUnknown;
  for (int call = 0; call < 2; ++call) {
    const SolveStatus want = fresh.solve();
    EXPECT_EQ(reused.solve(), want) << step << ", call " << call;
    EXPECT_EQ(reused.model(), fresh.model()) << step << ", call " << call;
    EXPECT_EQ(reused.stats(), fresh.stats()) << step << ", call " << call;
    EXPECT_EQ(reused.query_stats(), fresh.query_stats())
        << step << ", call " << call;
    if (call == 0) first = want;
  }
  return first;
}

TEST(Solver, RearmedSolverIsIndistinguishableFromFresh) {
  Solver reused;
  const SolverConfig plain;

  const Cnf sat =
      encode_circuit_sat(net::decompose(gen::ripple_carry_adder(4)));
  // Root units on top: a re-armed solver must place them at level 0 even
  // when the previous instance ended deep in the search.
  Cnf units = sat;
  units.add_clause({pos(0)});
  units.add_clause({neg(1)});

  EXPECT_EQ(expect_rearmed_matches_fresh(reused, sat, plain, "sat"),
            SolveStatus::kSat);
  EXPECT_EQ(expect_rearmed_matches_fresh(reused, units, plain, "units"),
            SolveStatus::kSat);

  EXPECT_EQ(expect_rearmed_matches_fresh(reused, pigeonhole(5, 4), plain,
                                         "unsat"),
            SolveStatus::kUnsat);
  EXPECT_GT(reused.stats().conflicts, 0u);

  // Units that contradict while the clauses are being added.
  Cnf root(3);
  root.add_clause({pos(0)});
  root.add_clause({neg(0), pos(1)});
  root.add_clause({neg(1)});
  root.add_clause({pos(1), pos(2)});
  EXPECT_EQ(expect_rearmed_matches_fresh(reused, root, plain, "root conflict"),
            SolveStatus::kUnsat);
  EXPECT_EQ(reused.stats().conflicts, 0u);

  SolverConfig capped;
  capped.max_conflicts = 3;
  EXPECT_EQ(expect_rearmed_matches_fresh(reused, pigeonhole(6, 5), capped,
                                         "capped"),
            SolveStatus::kUnknown);
  EXPECT_EQ(reused.stats().stop_reason, StopReason::kConflictLimit);
  expect_rearmed_matches_fresh(reused, units, plain, "units after capped");

  Budget cancelled;
  cancelled.cancel();
  SolverConfig cancelling;
  cancelling.budget = &cancelled;
  EXPECT_EQ(expect_rearmed_matches_fresh(reused, pigeonhole(4, 3),
                                         cancelling, "cancelled"),
            SolveStatus::kUnknown);
  EXPECT_EQ(reused.stats().stop_reason, StopReason::kCancelled);

  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    expect_rearmed_matches_fresh(reused, random_cnf(30, 90, seed), plain,
                                 "random");
  expect_rearmed_matches_fresh(reused, units, plain, "units after random");
}

}  // namespace
}  // namespace cwatpg::sat
