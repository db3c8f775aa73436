// Quickstart: build a circuit, generate a test for a stuck-at fault,
// verify it — the five-minute tour of the library.
//
//   $ ./quickstart
//
// Shows: Network construction, the ISCAS85 c17 benchmark, fault lists,
// the SAT-based test generator, and fault simulation.
#include <iostream>

#include "fault/tegus.hpp"
#include "gen/trees.hpp"

int main() {
  using namespace cwatpg;

  // 1. A circuit. c17 is the classic 6-NAND ISCAS85 example; you can also
  //    build one gate by gate (net::Network::add_input/add_gate/add_output)
  //    or parse any combinational .bench file (net::read_bench_file).
  const net::Network circuit = gen::c17();
  std::cout << "circuit: " << circuit.name() << " — "
            << circuit.inputs().size() << " inputs, "
            << circuit.outputs().size() << " outputs, "
            << circuit.gate_count() << " gates\n";

  // 2. The fault universe: single stuck-at faults, structurally collapsed.
  const auto faults = fault::collapsed_fault_list(circuit);
  std::cout << "collapsed fault list: " << faults.size() << " faults\n\n";

  // 3. Generate a test for one specific fault via the Larrabee ATPG-SAT
  //    construction + CDCL solver.
  const fault::StuckAtFault psi{*circuit.find("11"),
                                fault::StuckAtFault::kStem, true};
  fault::Pattern test;
  fault::SatWorkspace workspace;
  const fault::FaultOutcome outcome =
      fault::generate_test(circuit, psi, {}, workspace, test);

  std::cout << "fault " << fault::to_string(circuit, psi) << ": ";
  switch (outcome.status) {
    case fault::FaultStatus::kDetected: {
      std::cout << "testable. test vector:";
      for (std::size_t i = 0; i < test.size(); ++i)
        std::cout << ' ' << circuit.name_of(circuit.inputs()[i]) << '='
                  << test[i];
      std::cout << "\n  (SAT instance: " << outcome.sat_vars
                << " vars, " << outcome.sat_clauses << " clauses, solved in "
                << outcome.solve_seconds * 1e3 << " ms)\n";
      // 4. Independent verification by fault simulation.
      std::cout << "  fault simulation confirms detection: "
                << (fault::detects(circuit, psi, test) ? "yes" : "NO")
                << "\n";
      break;
    }
    case fault::FaultStatus::kUntestable:
      std::cout << "redundant (proven untestable)\n";
      break;
    default:
      std::cout << "not resolved\n";
      break;
  }

  // 5. Or run the whole flow at once.
  const fault::AtpgResult report = fault::run_atpg(circuit);
  std::cout << "\nfull ATPG: coverage "
            << report.fault_coverage() * 100 << "%, "
            << report.tests.size() << " patterns, "
            << report.num_untestable << " redundant faults\n";
  return 0;
}
