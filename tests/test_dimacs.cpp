#include <gtest/gtest.h>

#include <string>

#include "fault/atpg_circuit.hpp"
#include "gen/trees.hpp"
#include "sat/dimacs.hpp"
#include "sat/encode.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace cwatpg::sat {
namespace {

TEST(Dimacs, ParsesBasicFormula) {
  const Cnf f = read_dimacs_string(R"(c a comment
p cnf 3 2
1 -2 0
2 3 0
)");
  EXPECT_EQ(f.num_vars(), 3u);
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.clause(0)[0], pos(0));
  EXPECT_EQ(f.clause(0)[1], neg(1));
}

TEST(Dimacs, ClausesMaySpanLines) {
  const Cnf f = read_dimacs_string("p cnf 4 1\n1 2\n3 4 0\n");
  EXPECT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 4u);
}

TEST(Dimacs, MultipleClausesPerLine) {
  const Cnf f = read_dimacs_string("p cnf 2 2\n1 0 -2 0\n");
  EXPECT_EQ(f.num_clauses(), 2u);
}

TEST(Dimacs, CommentsAndPercentIgnored) {
  const Cnf f = read_dimacs_string(R"(c header comment
p cnf 1 1
c mid comment
1 0
%
)");
  EXPECT_EQ(f.num_clauses(), 1u);
}

TEST(Dimacs, TautologyDroppedCountsAgainstHeader) {
  // A tautological clause is read (counted) but not stored.
  const Cnf f = read_dimacs_string("p cnf 1 1\n1 -1 0\n");
  EXPECT_EQ(f.num_clauses(), 0u);
}

TEST(Dimacs, Errors) {
  EXPECT_THROW(read_dimacs_string("1 0\n"), DimacsError);  // no header
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\np cnf 1 1\n1 0\n"),
               DimacsError);  // duplicate header
  EXPECT_THROW(read_dimacs_string("p dnf 1 1\n1 0\n"), DimacsError);
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n2 0\n"),
               DimacsError);  // literal out of range
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n0\n"), DimacsError);  // empty
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n1\n"),
               DimacsError);  // unterminated
  EXPECT_THROW(read_dimacs_string("p cnf 1 2\n1 0\n"),
               DimacsError);  // count mismatch
  EXPECT_THROW(read_dimacs_string("p cnf 1 1\n1 x 0\n"),
               DimacsError);  // garbage token
}

TEST(Dimacs, ErrorCarriesLine) {
  try {
    read_dimacs_string("p cnf 1 1\n3 0\n");
    FAIL();
  } catch (const DimacsError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

// Every diagnostic names the offending token, not just the line — the test
// greps the what() string for it.
std::string error_message(const std::string& text) {
  try {
    read_dimacs_string(text);
  } catch (const DimacsError& e) {
    return e.what();
  }
  return {};
}

TEST(Dimacs, ErrorMessagesCarryOffendingToken) {
  EXPECT_NE(error_message("p cnf 1 1\n-3 0\n")
                .find("literal -3 out of range (header declares 1 vars)"),
            std::string::npos);
  EXPECT_NE(error_message("p cnf 1 1\n1 x 0\n").find("unexpected token 'x'"),
            std::string::npos);
  EXPECT_NE(error_message("1 0\np cnf 1 1\n")
                .find("token '1' before the 'p cnf' header"),
            std::string::npos);
  EXPECT_NE(error_message("p dnf 1 1\n1 0\n").find("'p dnf 1 1'"),
            std::string::npos);
  EXPECT_NE(error_message("p dnf 1 1\n1 0\n")
                .find("expected 'p cnf <vars> <clauses>'"),
            std::string::npos);
  EXPECT_NE(error_message("p cnf 1 1\np cnf 1 1\n1 0\n")
                .find("duplicate header 'p cnf 1 1'"),
            std::string::npos);
  EXPECT_NE(error_message("p cnf 2 1\n-2\n")
                .find("unterminated clause (missing 0 after literal -2)"),
            std::string::npos);
  EXPECT_NE(error_message("p cnf 1 2\n1 0\n")
                .find("header says 2, file has 1"),
            std::string::npos);
  EXPECT_NE(error_message("p cnf 1 1\n0\n").find("bare '0'"),
            std::string::npos);
}

TEST(Dimacs, RoundTripWithWriter) {
  // Export a real ATPG-SAT instance, re-read it, solve both: identical
  // satisfiability and variable counts.
  const net::Network n = gen::c17();
  const fault::AtpgCircuit atpg = fault::build_atpg_circuit(
      n, {*n.find("11"), fault::StuckAtFault::kStem, true});
  const Cnf original = encode_circuit_sat(atpg.miter);
  const Cnf reread = read_dimacs_string(original.to_dimacs());
  EXPECT_EQ(reread.num_vars(), original.num_vars());
  EXPECT_EQ(reread.num_clauses(), original.num_clauses());
  EXPECT_EQ(solve_cnf(reread).status, solve_cnf(original).status);
}

// The exact rendering of CIRCUIT-SAT(c17): variable numbering, clause
// order and literal order of the encoder, and the writer's format.
TEST(Dimacs, CircuitSatRenderingOfC17IsPinned) {
  EXPECT_EQ(encode_circuit_sat(gen::c17()).to_dimacs(),
            "p cnf 13 23\n"
            "3 6 0\n4 6 0\n-3 -4 -6 0\n"
            "2 7 0\n6 7 0\n-2 -6 -7 0\n"
            "6 8 0\n5 8 0\n-5 -6 -8 0\n"
            "7 9 0\n8 9 0\n-7 -8 -9 0\n"
            "1 10 0\n3 10 0\n-1 -3 -10 0\n"
            "10 11 0\n7 11 0\n-7 -10 -11 0\n"
            "11 -12 0\n-11 12 0\n"
            "9 -13 0\n-9 13 0\n"
            "12 13 0\n");
}

TEST(Dimacs, RoundTripLiteralExact) {
  Cnf f(3);
  f.add_clause({pos(0), neg(2)});
  f.add_clause({neg(1)});
  const Cnf g = read_dimacs_string(f.to_dimacs());
  ASSERT_EQ(g.num_clauses(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(g.clause(c).size(), f.clause(c).size());
    for (std::size_t i = 0; i < g.clause(c).size(); ++i)
      EXPECT_EQ(g.clause(c)[i], f.clause(c)[i]);
  }
}

// ---- fuzz hardening -------------------------------------------------------
// Contract under hostile input: parse or throw DimacsError with a 1-based
// line number — never crash, never allocate a giant Cnf from a lying
// header, never let a poisoned stream swallow garbage silently.

void expect_parses_or_dimacs_errors(const std::string& text,
                                    const char* what) {
  try {
    (void)read_dimacs_string(text);
  } catch (const DimacsError& e) {
    EXPECT_GE(e.line(), 1u) << what << ": error lost its line number: "
                            << e.what();
  }
}

TEST(DimacsFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xd1aca5e);
  const std::string alphabet = "pcnf 0123456789-\n\t%c \xfe";
  for (int round = 0; round < 300; ++round) {
    const std::size_t len = rng.below(300);
    std::string text;
    text.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
      text += alphabet[rng.below(alphabet.size())];
    expect_parses_or_dimacs_errors(text, "garbage");
  }
}

TEST(DimacsFuzz, TruncationsAndBitFlipsOfAValidFileNeverCrash) {
  const std::string valid = "c fuzz base\np cnf 4 3\n1 -2 0\n2 3 -4 0\n4 0\n";
  for (std::size_t cut = 0; cut <= valid.size(); ++cut)
    expect_parses_or_dimacs_errors(valid.substr(0, cut), "truncation");
  Rng rng(0xf11b5);
  for (int round = 0; round < 300; ++round) {
    std::string text = valid;
    text[rng.below(text.size())] ^= static_cast<char>(1u << rng.below(7));
    expect_parses_or_dimacs_errors(text, "bit flip");
  }
}

TEST(DimacsFuzz, ImplausibleHeaderIsRejectedNotAllocated) {
  // A hostile header asking for 2^40 variables must be an error, not an
  // attempted terabyte allocation.
  try {
    (void)read_dimacs_string("p cnf 1099511627776 1\n1 0\n");
    FAIL() << "huge var count must be rejected";
  } catch (const DimacsError& e) {
    EXPECT_EQ(e.line(), 1u);
  }
  expect_parses_or_dimacs_errors("p cnf 999999999999999999999 1\n1 0\n",
                                 "overflowing header");
}

TEST(DimacsFuzz, OverflowingLiteralIsALineError) {
  // Pre-hardening, istream's failed `>> long` consumed the numeral and
  // could let the tail of the file vanish silently.
  try {
    (void)read_dimacs_string("p cnf 1 1\n1 0\n99999999999999999999\n");
    FAIL() << "overflowing literal must be rejected";
  } catch (const DimacsError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

}  // namespace
}  // namespace cwatpg::sat
