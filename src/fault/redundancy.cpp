#include "fault/redundancy.hpp"

#include "netlist/simplify.hpp"

namespace cwatpg::fault {
namespace {

/// Applies the rewrite an untestable fault licenses: the faulted
/// connection is hard-wired to the stuck value. Returns the simplified
/// network (constant folding + dead-logic sweep).
net::Network wire_through(const net::Network& src, const StuckAtFault& fault) {
  net::Network out;
  out.set_name(src.name());
  std::vector<net::NodeId> map(src.node_count(), net::kNullNode);
  net::NodeId stuck_const = net::kNullNode;
  auto constant = [&]() {
    if (stuck_const == net::kNullNode)
      stuck_const = out.add_const(fault.stuck_value);
    return stuck_const;
  };

  for (net::NodeId id = 0; id < src.node_count(); ++id) {
    const auto& node = src.node(id);
    std::vector<net::NodeId> fis;
    fis.reserve(node.fanins.size());
    for (std::size_t p = 0; p < node.fanins.size(); ++p) {
      if (!fault.is_stem() && id == fault.node &&
          static_cast<std::int32_t>(p) == fault.pin) {
        fis.push_back(constant());  // branch fault: this pin only
      } else {
        fis.push_back(map[node.fanins[p]]);
      }
    }
    switch (node.type) {
      case net::GateType::kInput:
        map[id] = out.add_input(src.name_of(id));
        break;
      case net::GateType::kConst0:
      case net::GateType::kConst1:
        map[id] = out.add_const(node.type == net::GateType::kConst1);
        break;
      case net::GateType::kOutput:
        map[id] = out.add_output(fis[0], src.name_of(id));
        break;
      default:
        map[id] = out.add_gate(node.type, std::move(fis), src.name_of(id));
        break;
    }
    if (fault.is_stem() && id == fault.node)
      map[id] = constant();  // every consumer sees the stuck value
  }
  return net::simplify(out);
}

}  // namespace

RedundancyResult remove_redundancy(const net::Network& netw,
                                   const RedundancyOptions& options) {
  RedundancyResult result;
  result.circuit = netw;
  result.gates_before = netw.gate_count();

  SatWorkspace workspace;
  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    bool changed = false;
    const auto faults = collapsed_fault_list(result.circuit);
    for (const StuckAtFault& fault : faults) {
      Pattern test;
      const FaultOutcome outcome =
          generate_test(result.circuit, fault, options.solver, workspace, test);
      if (outcome.status == FaultStatus::kUntestable ||
          outcome.status == FaultStatus::kUnreachable) {
        // Unreachable sites are dead logic; wiring them through lets the
        // sweep collect them too.
        result.circuit = wire_through(result.circuit, fault);
        ++result.removed_faults;
        changed = true;
        break;  // fault list is stale: restart the scan
      }
    }
    if (!changed) break;
  }
  result.gates_after = result.circuit.gate_count();
  return result;
}

}  // namespace cwatpg::fault
