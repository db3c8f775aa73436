#include <gtest/gtest.h>

#include "sat/cnf.hpp"

namespace cwatpg::sat {
namespace {

TEST(Lit, EncodingRoundTrip) {
  const Lit p = pos(5);
  const Lit n = neg(5);
  EXPECT_EQ(p.var(), 5u);
  EXPECT_FALSE(p.negated());
  EXPECT_TRUE(n.negated());
  EXPECT_EQ((~p), n);
  EXPECT_EQ((~n), p);
  EXPECT_EQ(Lit::from_code(p.code()), p);
}

TEST(Lit, Ordering) {
  EXPECT_LT(pos(1), neg(1));
  EXPECT_LT(neg(1), pos(2));
}

TEST(Cnf, GrowAndNewVar) {
  Cnf f;
  EXPECT_EQ(f.num_vars(), 0u);
  f.grow_to(4);
  EXPECT_EQ(f.num_vars(), 5u);
  EXPECT_EQ(f.new_var(), 5u);
  EXPECT_EQ(f.num_vars(), 6u);
}

TEST(Cnf, AddClauseDeduplicatesLiterals) {
  Cnf f(3);
  EXPECT_TRUE(f.add_clause({pos(0), pos(0), neg(1)}));
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(Cnf, TautologyDropped) {
  Cnf f(2);
  EXPECT_FALSE(f.add_clause({pos(0), neg(0)}));
  EXPECT_EQ(f.num_clauses(), 0u);
}

TEST(Cnf, EmptyClauseThrows) {
  Cnf f(1);
  EXPECT_THROW(f.add_clause({}), std::invalid_argument);
}

TEST(Cnf, OutOfRangeThrows) {
  Cnf f(2);
  EXPECT_THROW(f.add_clause({pos(7)}), std::invalid_argument);
}

TEST(Cnf, EvalSatisfiedAndNot) {
  Cnf f(2);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(0), pos(1)});
  const std::vector<bool> m1 = {false, true};
  const std::vector<bool> m2 = {true, false};
  EXPECT_TRUE(f.eval(m1));
  EXPECT_FALSE(f.eval(m2));
}

TEST(Cnf, EvalShortAssignmentThrows) {
  Cnf f(3);
  f.add_clause({pos(2)});
  const std::vector<bool> m = {true};
  EXPECT_THROW(f.eval(m), std::invalid_argument);
}

TEST(Cnf, NumLiterals) {
  Cnf f(3);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(2)});
  EXPECT_EQ(f.num_literals(), 3u);
}

TEST(Cnf, ResetDropsEveryClauseAndNormalizesAfresh) {
  Cnf f(4);
  f.add_clause({pos(3), neg(1), pos(0)});
  f.add_clause({neg(2)});
  f.reset(3);
  EXPECT_EQ(f.num_vars(), 3u);
  EXPECT_EQ(f.num_clauses(), 0u);
  EXPECT_EQ(f.num_literals(), 0u);
  EXPECT_EQ(f.to_dimacs(), "p cnf 3 0\n");
  EXPECT_TRUE(f.add_clause({pos(2), neg(0), pos(2)}));  // sorted, deduped
  // A rejected clause leaves nothing behind in the arena.
  EXPECT_FALSE(f.add_clause({pos(1), neg(1)}));
  EXPECT_THROW(f.add_clause({pos(0), pos(3)}), std::invalid_argument);
  EXPECT_TRUE(f.add_clause({neg(1)}));
  EXPECT_EQ(f.num_literals(), 3u);
  EXPECT_EQ(f.to_dimacs(), "p cnf 3 2\n-1 3 0\n-2 0\n");
}

TEST(Cnf, ClauseRangeMatchesIndexedClauses) {
  Cnf f(3);
  f.add_clause({pos(0), neg(2)});
  f.add_clause({neg(1)});
  f.add_clause({pos(1), pos(2), neg(0)});
  std::size_t i = 0;
  for (const std::span<const Lit> c : f.clauses()) {
    ASSERT_LT(i, f.num_clauses());
    EXPECT_EQ(c.data(), f.clause(i).data());
    EXPECT_EQ(c.size(), f.clause(i).size());
    ++i;
  }
  EXPECT_EQ(i, 3u);
}

TEST(Cnf, DimacsShape) {
  Cnf f(2);
  f.add_clause({pos(0), neg(1)});
  const std::string d = f.to_dimacs();
  EXPECT_NE(d.find("p cnf 2 1"), std::string::npos);
  EXPECT_NE(d.find("1 -2 0"), std::string::npos);
}

}  // namespace
}  // namespace cwatpg::sat
