#include <gtest/gtest.h>

#include "fault/podem.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/decompose.hpp"

namespace cwatpg::fault {
namespace {

// ----------------------------------------------------------- 5-valued alg

TEST(Eval5, AndTable) {
  using net::GateType;
  const V5 d = V5::kD, db = V5::kDbar, x = V5::kX, one = V5::kOne,
           zero = V5::kZero;
  auto and5 = [](V5 a, V5 b) {
    const V5 ins[] = {a, b};
    return eval5(net::GateType::kAnd, ins);
  };
  EXPECT_EQ(and5(one, one), one);
  EXPECT_EQ(and5(one, zero), zero);
  EXPECT_EQ(and5(d, one), d);
  EXPECT_EQ(and5(d, zero), zero);
  EXPECT_EQ(and5(d, db), zero);  // good 1&0=0, faulty 0&1=0
  EXPECT_EQ(and5(d, d), d);
  EXPECT_EQ(and5(x, zero), zero);
  EXPECT_EQ(and5(x, one), x);
  EXPECT_EQ(and5(x, d), x);
}

TEST(Eval5, NotAndXor) {
  const V5 d[] = {V5::kD};
  EXPECT_EQ(eval5(net::GateType::kNot, d), V5::kDbar);
  const V5 two[] = {V5::kD, V5::kOne};
  EXPECT_EQ(eval5(net::GateType::kXor, two), V5::kDbar);
  const V5 same[] = {V5::kD, V5::kD};
  EXPECT_EQ(eval5(net::GateType::kXor, same), V5::kZero);
}

TEST(Eval5, OrNorTables) {
  const V5 a[] = {V5::kD, V5::kZero};
  EXPECT_EQ(eval5(net::GateType::kOr, a), V5::kD);
  EXPECT_EQ(eval5(net::GateType::kNor, a), V5::kDbar);
  const V5 b[] = {V5::kD, V5::kOne};
  EXPECT_EQ(eval5(net::GateType::kOr, b), V5::kOne);
}

// --------------------------------------------------------------- engine

TEST(Podem, DetectsKnownC17Fault) {
  const net::Network n = gen::c17();
  const StuckAtFault f{*n.find("10"), StuckAtFault::kStem, true};
  const PodemResult r = podem(n, f);
  ASSERT_EQ(r.status, PodemStatus::kDetected);
  EXPECT_TRUE(detects(n, f, r.test));
}

TEST(Podem, AllC17FaultsDetected) {
  const net::Network n = gen::c17();
  for (const StuckAtFault& f : all_faults(n)) {
    const PodemResult r = podem(n, f);
    ASSERT_EQ(r.status, PodemStatus::kDetected) << to_string(n, f);
    EXPECT_TRUE(detects(n, f, r.test)) << to_string(n, f);
  }
}

TEST(Podem, RedundantFaultProvenUntestable) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  n.add_output(g, "o");
  const PodemResult r = podem(n, {g, StuckAtFault::kStem, true});
  EXPECT_EQ(r.status, PodemStatus::kUntestable);
}

TEST(Podem, UnobservableSiteUntestable) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto dangle = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  const PodemResult r = podem(n, {dangle, StuckAtFault::kStem, false});
  EXPECT_EQ(r.status, PodemStatus::kUntestable);
}

TEST(Podem, BacktrackLimitAborts) {
  const net::Network n = net::decompose(gen::hamming_ecc(16));
  PodemOptions opts;
  opts.max_backtracks = 0;
  const auto faults = collapsed_fault_list(n);
  // With a zero budget, any fault needing >= 1 backtrack aborts; scan for
  // one (XOR-rich circuits always contain some).
  bool aborted = false;
  for (std::size_t i = 0; i < faults.size() && !aborted; ++i)
    aborted = podem(n, faults[i], opts).status == PodemStatus::kAborted;
  EXPECT_TRUE(aborted);
}

TEST(Podem, InvalidFaultThrows) {
  const net::Network n = gen::c17();
  EXPECT_THROW(podem(n, {999, StuckAtFault::kStem, true}),
               std::invalid_argument);
  EXPECT_THROW(podem(n, {*n.find("22"), 9, true}), std::invalid_argument);
}

TEST(Podem, AgreesWithSatOnTestability) {
  // PODEM and the SAT engine must agree fault-by-fault on
  // testable vs untestable across whole circuits.
  for (const net::Network& n :
       {gen::c17(), gen::fig4a_network(),
        net::decompose(gen::ripple_carry_adder(3)),
        net::decompose(gen::simple_alu(2)),
        net::decompose(gen::comparator(3))}) {
    SatWorkspace workspace;
    for (const StuckAtFault& f : collapsed_fault_list(n)) {
      const PodemResult structural = podem(n, f);
      Pattern test;
      const FaultOutcome sat_based = generate_test(n, f, {}, workspace, test);
      ASSERT_NE(structural.status, PodemStatus::kAborted);
      if (sat_based.status == FaultStatus::kDetected) {
        EXPECT_EQ(structural.status, PodemStatus::kDetected)
            << n.name() << " " << to_string(n, f);
        EXPECT_TRUE(detects(n, f, structural.test));
      } else if (sat_based.status == FaultStatus::kUntestable) {
        EXPECT_EQ(structural.status, PodemStatus::kUntestable)
            << n.name() << " " << to_string(n, f);
      }
    }
  }
}

TEST(Podem, BranchFaultsHandled) {
  const net::Network n = gen::c17();
  const StuckAtFault branch{*n.find("16"), 1, true};
  const PodemResult r = podem(n, branch);
  ASSERT_EQ(r.status, PodemStatus::kDetected);
  EXPECT_TRUE(detects(n, branch, r.test));
}

TEST(Podem, StatsPopulated) {
  const net::Network n = net::decompose(gen::parity_tree(8));
  const auto faults = collapsed_fault_list(n);
  const PodemResult r = podem(n, faults[faults.size() / 2]);
  EXPECT_GT(r.implications, 0u);
  EXPECT_GT(r.decisions, 0u);
}

TEST(Podem, ScoapGuidanceStillCorrect) {
  const net::Network n = net::decompose(gen::hamming_ecc(8));
  PodemOptions guided;
  guided.scoap_guidance = true;
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    const PodemResult a = podem(n, f);
    const PodemResult b = podem(n, f, guided);
    ASSERT_EQ(a.status, b.status) << to_string(n, f);
    if (b.status == PodemStatus::kDetected) {
      EXPECT_TRUE(detects(n, f, b.test)) << to_string(n, f);
    }
  }
}

TEST(Podem, ScoapGuidanceReducesTotalBacktracks) {
  // Aggregate over an XOR-rich circuit where justification order matters.
  const net::Network n = net::decompose(gen::hamming_ecc(12));
  PodemOptions plain, guided;
  guided.scoap_guidance = true;
  std::uint64_t plain_bt = 0, guided_bt = 0;
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    plain_bt += podem(n, f, plain).backtracks;
    guided_bt += podem(n, f, guided).backtracks;
  }
  EXPECT_LE(guided_bt, plain_bt + plain_bt / 10);  // never much worse
}

class PodemFamilySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemFamilySweep, RandomCircuitsFullyResolved) {
  gen::HuttonParams p;
  p.num_gates = 60;
  p.num_inputs = 10;
  p.num_outputs = 4;
  p.seed = GetParam();
  const net::Network n = net::decompose(gen::hutton_random(p));
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    const PodemResult r = podem(n, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << to_string(n, f);
    if (r.status == PodemStatus::kDetected) {
      EXPECT_TRUE(detects(n, f, r.test)) << to_string(n, f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemFamilySweep,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cwatpg::fault
