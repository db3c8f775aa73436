// Golden per-circuit digests of the ATPG search.
//
// Each digest folds, for every fault of a run_atpg result: status, engine,
// SAT instance shape (sat_vars, sat_clauses), search effort (decisions,
// propagations, conflicts, learnt clauses) and the attributed test bits.
// Variable numbering, clause order, literal order and watch order all
// reach these digests, while the engines' unit tests mostly check only
// verdicts. A refactor of the per-fault encoding or of sat::Solver that
// claims to keep the search must leave every digest unchanged; a digest
// that moves because the search was changed on purpose is re-recorded in
// the same change, with the reason stated.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "fault/parallel_atpg.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "netlist/decompose.hpp"

namespace cwatpg::fault {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const AtpgResult& result) {
  Digest d;
  d.add(result.outcomes.size());
  for (const FaultOutcome& o : result.outcomes) {
    d.add(static_cast<std::uint64_t>(o.status));
    d.add(static_cast<std::uint64_t>(o.engine));
    d.add(o.sat_vars);
    d.add(o.sat_clauses);
    d.add(o.solver_stats.decisions);
    d.add(o.solver_stats.propagations);
    d.add(o.solver_stats.conflicts);
    d.add(o.solver_stats.learnt_clauses);
    if (!o.has_test()) {
      d.add(~0ULL);
      continue;
    }
    const Pattern& test = result.tests[o.test()];
    d.add(test.size());
    for (const bool bit : test) d.add(bit ? 1 : 0);
  }
  return d.value();
}

/// Effort totals, printed beside a mismatching digest.
std::string effort_of(const AtpgResult& result) {
  sat::SolverStats total;
  std::size_t instances = 0;
  for (const FaultOutcome& o : result.outcomes) {
    total += o.solver_stats;
    if (o.engine != SolveEngine::kNone) ++instances;
  }
  return std::to_string(result.outcomes.size()) + " faults, " +
         std::to_string(instances) + " instances, " +
         std::to_string(total.conflicts) + " conflicts, " +
         std::to_string(total.propagations) + " propagations";
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every collapsed fault gets its own SAT instance (no random phase, no
/// dropping), so every instance's shape and effort enter the digest.
AtpgOptions per_fault_options() {
  AtpgOptions options;
  options.random_blocks = 0;
  options.drop_by_simulation = false;
  return options;
}

AtpgOptions incremental_options() {
  AtpgOptions options;
  options.random_blocks = 0;
  options.engine = AtpgEngine::kIncremental;
  return options;
}

net::Network hutton_member() {
  gen::HuttonParams params;
  params.num_gates = 160;
  params.num_inputs = 20;
  params.num_outputs = 10;
  params.locality = 0.5;
  params.unbounded_reconvergence = true;
  params.seed = 5;
  return gen::hutton_random(params);
}

/// Redundancy-heavy random logic: short wires and a narrow input layer
/// leave about 300 of its 681 collapsed faults untestable, so most of its
/// instances end in an UNSAT proof.
net::Network redundant_member() {
  gen::HuttonParams params;
  params.num_gates = 200;
  params.num_inputs = 24;
  params.num_outputs = 10;
  params.locality = 0.5;
  params.seed = 1;
  return gen::hutton_random(params);
}

/// A conflict cap of 4 aborts most hard instances; one escalation round
/// at twice the cap re-solves some, and PODEM with a small backtrack cap
/// resolves most of the rest, leaving some faults aborted. Random phase
/// and drop-by-simulation stay on, so escalated tests drop other aborts.
AtpgOptions capped_options() {
  AtpgOptions options;
  options.solver.max_conflicts = 4;
  options.escalation_rounds = 1;
  options.escalation_growth = 2;
  options.podem_max_backtracks = 64;
  return options;
}

struct Golden {
  const char* name;
  net::Network (*make)();
  std::uint64_t per_fault;
  std::uint64_t incremental;
};

const Golden kGoldens[] = {
    {"hutton160", hutton_member, 0x9962ef05bcf136c5ULL, 0xa844c6cfff72a489ULL},
    {"rca8", [] { return gen::ripple_carry_adder(8); }, 0x7cc91f947d70b289ULL,
     0xb3c70c0e6fadd87dULL},
    {"ecc8", [] { return net::decompose(gen::hamming_ecc(8)); },
     0x3618cb9028593becULL, 0x4b227e736a39a811ULL},
    {"xor_ecc16", [] { return gen::hamming_ecc(16); }, 0x5b4168e427c38016ULL,
     0xe687a5bdffe39446ULL},
    {"redundant200", redundant_member, 0x97d9ea35dc2a51a6ULL,
     0xff53d4516644e28bULL},
};

TEST(SearchGolden, PerFaultDigestsMatchRecorded) {
  for (const Golden& g : kGoldens) {
    const net::Network n = g.make();
    const AtpgResult r = run_atpg(n, per_fault_options());
    EXPECT_EQ(hex(digest_of(r)), hex(g.per_fault))
        << g.name << ": " << effort_of(r);
  }
}

TEST(SearchGolden, IncrementalDigestsMatchRecorded) {
  for (const Golden& g : kGoldens) {
    const net::Network n = g.make();
    const AtpgResult r = run_atpg(n, incremental_options());
    EXPECT_EQ(hex(digest_of(r)), hex(g.incremental))
        << g.name << ": " << effort_of(r);
  }
}

TEST(SearchGolden, RedundantMemberIsUnsatHeavy) {
  const AtpgResult r = run_atpg(redundant_member(), per_fault_options());
  EXPECT_GE(r.num_untestable, 100u) << effort_of(r);
}

TEST(SearchGolden, CappedRunDigestMatchesRecorded) {
  const AtpgResult r = run_atpg(redundant_member(), capped_options());
  std::size_t retried = 0;
  std::size_t podem = 0;
  for (const FaultOutcome& o : r.outcomes) {
    retried += o.engine == SolveEngine::kSatRetry ? 1 : 0;
    podem += o.engine == SolveEngine::kPodem ? 1 : 0;
  }
  // The run must reach every rung of the ladder for the digest to pin it.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(podem, 0u);
  EXPECT_GT(r.num_aborted, 0u);
  EXPECT_EQ(hex(digest_of(r)), hex(0x287efc6bd5ebfc4dULL)) << effort_of(r);
}

// Every pool worker solves on its own SAT state; the parallel result is
// the serial one bit for bit, so it has the serial run's digest.
TEST(SearchGolden, ParallelDigestsMatchSerialRecorded) {
  const Golden& g = kGoldens[std::size(kGoldens) - 1];
  const net::Network n = g.make();
  for (const std::size_t threads : {2u, 4u}) {
    ParallelAtpgOptions options;
    options.base = per_fault_options();
    options.num_threads = threads;
    const AtpgResult r = run_atpg_parallel(n, options);
    EXPECT_EQ(hex(digest_of(r)), hex(g.per_fault))
        << g.name << " at " << threads << " threads: " << effort_of(r);
  }
}

}  // namespace
}  // namespace cwatpg::fault
