// Baseline comparison: structural ATPG (PODEM) vs SAT-based ATPG (TEGUS).
//
// The paper's subject is the SAT route; the pre-existing baseline is
// direct structural search. This harness runs both engines over the same
// collapsed fault lists and reports per-fault effort (PODEM backtracks vs
// CDCL conflicts), agreement on testability, runtimes, and abort rates —
// and shows that *both* are easy on low-cut-width circuits: the paper's
// topological explanation is engine-agnostic.
#include <iostream>

#include "bench_common.hpp"
#include "fault/podem.hpp"
#include "fault/tegus.hpp"
#include "gen/suites.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace cwatpg;
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("PODEM vs SAT-based ATPG",
                "baseline comparison supporting the paper's Fig. 1 setting");

  gen::SuiteOptions opts;
  opts.scale = args.scale;
  opts.seed = args.seed;

  Table t({"circuit", "faults", "agree", "PODEM med bt", "PODEM p99 bt",
           "PODEM abort", "SAT med cf", "SAT p99 cf", "PODEM ms", "SAT ms"});

  std::size_t disagreements = 0;
  for (const net::Network& n : gen::iscas85_like_suite(opts)) {
    const auto faults = fault::collapsed_fault_list(n);
    std::vector<double> backtracks, conflicts;
    std::size_t agree = 0, total = 0, aborted = 0;
    double podem_seconds = 0, sat_seconds = 0;
    fault::PodemOptions podem_opts;
    podem_opts.max_backtracks = 20'000;
    fault::SatWorkspace workspace;

    for (std::size_t i = 0; i < faults.size(); i += args.stride) {
      ++total;
      Timer timer;
      const fault::PodemResult structural =
          fault::podem(n, faults[i], podem_opts);
      podem_seconds += timer.seconds();

      timer.reset();
      fault::Pattern test;
      const fault::FaultOutcome sat_based =
          fault::generate_test(n, faults[i], {}, workspace, test);
      sat_seconds += timer.seconds();

      backtracks.push_back(static_cast<double>(structural.backtracks));
      conflicts.push_back(
          static_cast<double>(sat_based.solver_stats.conflicts));
      if (structural.status == fault::PodemStatus::kAborted) {
        ++aborted;
      } else {
        const bool podem_testable =
            structural.status == fault::PodemStatus::kDetected;
        const bool sat_testable =
            sat_based.status == fault::FaultStatus::kDetected;
        if (podem_testable == sat_testable)
          ++agree;
        else
          ++disagreements;
      }
    }

    t.add_row({n.name(), cell(total),
               cell(agree) + "/" + cell(total - aborted),
               cell(summarize(backtracks).median, 0),
               cell(summarize(backtracks).p99, 0), cell(aborted),
               cell(summarize(conflicts).median, 0),
               cell(summarize(conflicts).p99, 0),
               cell(podem_seconds * 1e3, 0), cell(sat_seconds * 1e3, 0)});
  }
  t.print(std::cout);
  std::cout << "\ndisagreements on testability (excluding aborts): "
            << disagreements << " (must be 0 — both engines are exact)\n";
  std::cout << "\nreading: on these low-cut-width circuits both engines "
               "finish with tiny search effort; the SAT route additionally "
               "benefits from learning on the rare hard (redundant) "
               "faults. The easiness is a property of the circuits, not of "
               "one algorithm.\n";
  return 0;
}
