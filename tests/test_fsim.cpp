#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "fault/fsim.hpp"
#include "fault/parallel_atpg.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/cone.hpp"
#include "netlist/decompose.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace cwatpg::fault {
namespace {

TEST(Fsim, KnownC17Detection) {
  const net::Network n = gen::c17();
  // Inputs in order: 1, 2, 3, 6, 7.
  // With 1=1,3=1 => G10=0. G10 s-a-1 flips G10 to 1; with 2=0 => G16=1;
  // out22 = NAND(G10,G16): good NAND(0,1)=1, faulty NAND(1,1)=0 => detect.
  const StuckAtFault f{*n.find("10"), StuckAtFault::kStem, true};
  const Pattern detecting = {true, false, true, false, false};
  EXPECT_TRUE(detects(n, f, detecting));
  // With 1=0: G10 is already 1, fault not excited.
  const Pattern non_detecting = {false, false, true, false, false};
  EXPECT_FALSE(detects(n, f, non_detecting));
}

TEST(Fsim, StuckValueEqualGoodValueNotDetected) {
  const net::Network n = gen::c17();
  // Any pattern where net already equals the stuck value can't detect.
  const StuckAtFault f{*n.find("10"), StuckAtFault::kStem, false};
  const Pattern p = {true, true, true, true, true};  // G10 = NAND(1,1) = 0
  EXPECT_FALSE(detects(n, f, p));
}

TEST(Fsim, BranchFaultDiffersFromStem) {
  // Branch fault on one fanout of signal 11 affects only one output path.
  const net::Network n = gen::c17();
  const StuckAtFault branch{*n.find("16"), 1, true};  // 11->16 branch s-a-1
  const StuckAtFault stem{*n.find("11"), StuckAtFault::kStem, true};
  // Find a pattern detecting the stem via output 23 only — it must not
  // detect the branch into gate 16.
  cwatpg::Rng rng(3);
  bool found_difference = false;
  for (int t = 0; t < 200 && !found_difference; ++t) {
    Pattern p(5);
    for (auto&& b : p) b = rng.chance(0.5);
    if (detects(n, stem, p) != detects(n, branch, p))
      found_difference = true;
  }
  EXPECT_TRUE(found_difference);
}

TEST(Fsim, AgreesWithBruteForceOnAllFaults) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  // All 32 patterns at once.
  std::vector<Pattern> patterns;
  for (int v = 0; v < 32; ++v) {
    Pattern p(5);
    for (int b = 0; b < 5; ++b) p[b] = (v >> b) & 1;
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    bool reference = false;
    for (const Pattern& p : patterns)
      reference = reference || detects(n, faults[i], p);
    EXPECT_EQ(detected[i], reference) << to_string(n, faults[i]);
  }
}

TEST(Fsim, EveryC17FaultDetectable) {
  // c17 is fully testable: exhaustive patterns detect every fault.
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  std::vector<Pattern> patterns;
  for (int v = 0; v < 32; ++v) {
    Pattern p(5);
    for (int b = 0; b < 5; ++b) p[b] = (v >> b) & 1;
    patterns.push_back(p);
  }
  EXPECT_DOUBLE_EQ(coverage(n, faults, patterns), 1.0);
}

TEST(Fsim, RedundantFaultNeverDetected) {
  // OR(a, ~a) = 1 always: s-a-1 on the OR output is undetectable.
  net::Network n;
  const auto a = n.add_input("a");
  const auto na = n.add_gate(net::GateType::kNot, {a});
  const auto g = n.add_gate(net::GateType::kOr, {a, na});
  n.add_output(g, "o");
  const StuckAtFault f{g, StuckAtFault::kStem, true};
  const std::vector<Pattern> patterns = {{false}, {true}};
  const StuckAtFault faults[] = {f};
  const auto detected = fault_simulate(n, faults, patterns);
  EXPECT_FALSE(detected[0]);
}

TEST(Fsim, MoreThan64Patterns) {
  const net::Network n = net::decompose(gen::parity_tree(8));
  const auto faults = collapsed_fault_list(n);
  cwatpg::Rng rng(9);
  std::vector<Pattern> patterns;
  for (int t = 0; t < 130; ++t) {  // 3 blocks, last partial
    Pattern p(8);
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  // Parity trees are highly testable: random patterns detect nearly all.
  std::size_t hits = 0;
  for (bool d : detected)
    if (d) ++hits;
  EXPECT_GT(hits, faults.size() * 9 / 10);
}

TEST(Fsim, PartialLastBlockMasked) {
  // A detection that would only occur in lanes beyond the pattern count
  // must not leak: craft 1 pattern and verify against single detects().
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const std::vector<Pattern> one = {{true, true, true, true, true}};
  const auto detected = fault_simulate(n, faults, one);
  for (std::size_t i = 0; i < faults.size(); ++i)
    EXPECT_EQ(detected[i], detects(n, faults[i], one[0]));
}

TEST(Fsim, EmptyPatternsDetectNothing) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const auto detected = fault_simulate(n, faults, {});
  for (bool d : detected) EXPECT_FALSE(d);
}

TEST(Fsim, WrongPatternWidthThrows) {
  const net::Network n = gen::c17();
  const auto faults = all_faults(n);
  const std::vector<Pattern> bad = {{true, false}};
  EXPECT_THROW(fault_simulate(n, faults, bad), std::invalid_argument);
}

TEST(Fsim, CoverageEmptyFaultListIsFull) {
  const net::Network n = gen::c17();
  EXPECT_DOUBLE_EQ(coverage(n, {}, {}), 1.0);
}

class FsimRandomCross : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsimRandomCross, BlockSimMatchesScalarSim) {
  const net::Network n = net::decompose(gen::simple_alu(3));
  const auto faults = collapsed_fault_list(n);
  cwatpg::Rng rng(GetParam());
  std::vector<Pattern> patterns;
  for (int t = 0; t < 10; ++t) {
    Pattern p(n.inputs().size());
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(p);
  }
  const auto detected = fault_simulate(n, faults, patterns);
  for (std::size_t i = 0; i < faults.size(); i += 5) {
    bool reference = false;
    for (const auto& p : patterns)
      reference = reference || detects(n, faults[i], p);
    EXPECT_EQ(detected[i], reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsimRandomCross,
                         ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------- whole-cone reference --
//
// The reference simulator: for every (fault, 64-pattern block) it
// re-evaluates the fault's entire transitive fanout in node-id order,
// whether or not the fault effect reaches a node. Slow but obviously
// right; the event-driven simulator must match it bit for bit.

struct Reference {
  /// matrix[i][w]: lanes of block w on which faults[i] is detected.
  std::vector<std::vector<std::uint64_t>> matrix;
  /// cone[i]: size of faults[i]'s transitive fanout (its root included).
  std::vector<std::uint64_t> cone;
};

Reference reference_simulate(const net::Network& netw,
                             std::span<const StuckAtFault> faults,
                             std::span<const Pattern> patterns) {
  const std::size_t words = (patterns.size() + 63) / 64;
  Reference ref;
  ref.matrix.assign(faults.size(), std::vector<std::uint64_t>(words, 0));
  std::vector<std::vector<net::NodeId>> tfo(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const std::vector<bool> mask =
        net::transitive_fanout(netw, fault_cone_root(faults[fi]));
    for (net::NodeId v = 0; v < netw.node_count(); ++v)
      if (mask[v]) tfo[fi].push_back(v);
    ref.cone.push_back(tfo[fi].size());
  }
  const std::size_t num_pis = netw.inputs().size();
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t lanes =
        std::min<std::size_t>(64, patterns.size() - w * 64);
    const std::uint64_t lane_mask = lanes == 64 ? ~0ULL : (1ULL << lanes) - 1;
    std::vector<std::uint64_t> pi_words(num_pis, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (std::size_t i = 0; i < num_pis; ++i)
        if (patterns[w * 64 + lane][i]) pi_words[i] |= 1ULL << lane;
    const net::SimFrame good = net::simulate64(netw, pi_words);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const StuckAtFault& fault = faults[fi];
      const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0ULL;
      net::SimFrame faulty = good;
      std::uint64_t diff = 0;
      for (const net::NodeId v : tfo[fi]) {
        const auto& node = netw.node(v);
        std::vector<std::uint64_t> ins;
        for (std::size_t p = 0; p < node.fanins.size(); ++p)
          ins.push_back(!fault.is_stem() && v == fault.node &&
                                static_cast<std::int32_t>(p) == fault.pin
                            ? stuck
                            : faulty[node.fanins[p]]);
        if (fault.is_stem() && v == fault.node)
          faulty[v] = stuck;
        else if (node.type == net::GateType::kOutput)
          faulty[v] = ins[0];
        else if (!ins.empty())
          faulty[v] = net::eval_gate_word(node.type, ins);
        if (node.type == net::GateType::kOutput)
          diff |= (faulty[v] ^ good[v]) & lane_mask;
      }
      ref.matrix[fi][w] = diff;
    }
  }
  return ref;
}

std::vector<Pattern> random_patterns(const net::Network& netw,
                                     std::size_t count, std::uint64_t seed) {
  cwatpg::Rng rng(seed);
  std::vector<Pattern> patterns;
  for (std::size_t t = 0; t < count; ++t) {
    Pattern p(netw.inputs().size());
    for (auto&& b : p) b = rng.chance(0.5);
    patterns.push_back(p);
  }
  return patterns;
}

/// Checks fault_simulate and detection_matrix against the reference on the
/// uncollapsed fault list, at pattern counts that cover a single pattern,
/// partial and full last blocks, and several blocks.
void expect_matches_reference(const net::Network& netw) {
  SCOPED_TRACE(netw.name());
  const std::vector<StuckAtFault> faults = all_faults(netw);
  for (const std::size_t count : {1u, 63u, 64u, 65u, 256u}) {
    SCOPED_TRACE(count);
    const std::vector<Pattern> patterns = random_patterns(netw, count, count);
    const Reference ref = reference_simulate(netw, faults, patterns);
    EXPECT_EQ(detection_matrix(netw, faults, patterns), ref.matrix);

    FsimStats stats;
    const std::vector<bool> detected =
        fault_simulate(netw, faults, patterns, &stats);
    // fault_simulate resimulates a fault block by block until the first
    // detecting block; the reference would evaluate its whole cone in each.
    std::uint64_t resims = 0, cone_evals = 0, hits = 0;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      bool hit = false;
      for (const std::uint64_t word : ref.matrix[fi]) {
        ++resims;
        cone_evals += ref.cone[fi];
        if (word != 0) {
          hit = true;
          break;
        }
      }
      EXPECT_EQ(detected[fi], hit) << to_string(netw, faults[fi]);
      if (hit) ++hits;
    }
    EXPECT_EQ(stats.resims, resims);
    EXPECT_EQ(stats.detected, hits);
    EXPECT_GT(stats.node_evals, 0u);
    EXPECT_LE(stats.node_evals, cone_evals);
  }
}

net::Network read_back(const net::Network& netw) {
  std::ostringstream text;
  net::write_bench(text, netw);
  return net::read_bench_string(text.str(), netw.name());
}

TEST(FsimReference, FaultListCoversPiStemsAndOutputBranches) {
  // The reference tests below rely on all_faults exercising the two
  // unusual fault sites: PI stems and branch faults on kOutput markers.
  const net::Network n = read_back(gen::iscas85_like_suite({0.1, 7})[0]);
  bool pi_stem = false, output_branch = false;
  for (const StuckAtFault& f : all_faults(n)) {
    pi_stem |= f.is_stem() && n.type(f.node) == net::GateType::kInput;
    output_branch |= !f.is_stem() && n.type(f.node) == net::GateType::kOutput;
  }
  EXPECT_TRUE(pi_stem);
  EXPECT_TRUE(output_branch);
}

TEST(FsimReference, SeededHuttonCircuits) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::HuttonParams p;
    p.num_gates = 150;
    p.num_inputs = 12;
    p.num_outputs = 6;
    p.locality = seed % 2 == 0 ? 0.5 : 0.9;
    p.unbounded_reconvergence = seed == 4;
    p.seed = seed;
    net::Network n = gen::hutton_random(p);
    n.set_name("hutton#" + std::to_string(seed));
    expect_matches_reference(n);
  }
}

TEST(FsimReference, SuiteMembersReadBackFromBench) {
  // .bench puts every OUTPUT marker after all the logic, so node-id order
  // and level order differ most on read-back circuits.
  const auto iscas = gen::iscas85_like_suite({0.1, 7});
  for (std::size_t i = 0; i < iscas.size(); i += 2)
    expect_matches_reference(read_back(iscas[i]));
  const auto mcnc = gen::mcnc_like_suite({0.1, 7});
  for (std::size_t i = 0; i < mcnc.size(); i += 8)
    expect_matches_reference(read_back(mcnc[i]));
}

// ------------------------------------------------------ effort counters --

/// The fsim counters that measure per-fault work. fsim.calls and
/// fsim.patterns count shards, so they grow with the thread count.
std::map<std::string, std::uint64_t> fsim_effort(
    const obs::MetricsRegistry& reg) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const char* name :
       {"fsim.faults", "fsim.resims", "fsim.node_evals", "fsim.detected"})
    out[name] = snap.counters.at(name);
  return out;
}

TEST(FsimCounters, SerialAndShardedParallelRunsAgree) {
  // Per-fault effort is independent of every other fault, so sharding the
  // random phase across workers must not move any fsim counter.
  const net::Network n = read_back(gen::iscas85_like_suite({0.3, 3})[8]);
  obs::MetricsRegistry serial_reg;
  AtpgOptions options;
  options.metrics = &serial_reg;
  const AtpgResult serial = run_atpg(n, options);
  const auto serial_effort = fsim_effort(serial_reg);
  const std::uint64_t serial_calls =
      serial_reg.snapshot().counters.at("fsim.calls");
  ASSERT_GT(serial_calls, 1u);  // the random phase and some drop simulations
  ASSERT_GT(serial_effort.at("fsim.node_evals"), 0u);

  for (const std::size_t threads : {2u, 4u}) {
    obs::MetricsRegistry reg;
    ParallelAtpgOptions popts;
    popts.base = options;
    popts.base.metrics = &reg;
    popts.num_threads = threads;
    popts.sim_grain = 16;  // small shards, so the random phase is split
    const AtpgResult parallel = run_atpg_parallel(n, popts);
    EXPECT_GT(reg.snapshot().counters.at("fsim.calls"), serial_calls)
        << "random phase not sharded at " << threads << " threads";
    EXPECT_EQ(parallel.tests, serial.tests) << threads;
    EXPECT_EQ(fsim_effort(reg), serial_effort) << threads;
  }
}

}  // namespace
}  // namespace cwatpg::fault
