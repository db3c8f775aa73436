// Construction of the ATPG-SAT circuit C_psi^ATPG (§2, Figure 3) and the
// Lemma 4.2 / 4.3 ordering transfer h -> h_psi.
//
// C_psi^ATPG is built from:
//   * C_psi^sub — the good subcircuit: TFI(TFO(fault site));
//   * C_psi^fo  — a faulty copy of the fanout cone of the site, with the
//     faulted net replaced by the stuck value, side inputs tapping the good
//     subcircuit;
//   * one XOR per observed primary output, pairing the good and faulty
//     versions; the XOR outputs are the primary outputs of C_psi^ATPG.
// CIRCUIT-SAT on the result (encode_circuit_sat: "at least one output is 1")
// is satisfied exactly by the test vectors for the fault.
//
// C_psi^ATPG has one definition: a walk from the fault root (a DFS over
// fanouts, then the fanin closure of that fanout cone) that numbers the
// miter's nodes — good copy in source id order, the stuck constant, faulty
// copy in source id order, then one (XOR, output marker) pair per observed
// primary output. Two consumers share it:
//   * encode_atpg_instance writes the clauses of each node as it is
//     numbered, straight into a sat::Cnf. This is what the per-fault engine
//     (generate_test) solves; no miter Network exists on that path.
//   * build_atpg_circuit builds the same nodes as a net::Network. That form
//     is kept for the Lemma 4.2 ordering transfer (transfer_ordering) and
//     the figure benches, which need the miter as a circuit.
// Both give the same numbering, so encode_atpg_instance's CNF is clause
// for clause encode_circuit_sat(build_atpg_circuit(f).miter) plus the
// excitation unit clause.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/network.hpp"
#include "sat/cnf.hpp"

namespace cwatpg::fault {

struct AtpgCircuit {
  net::Network miter;  ///< C_psi^ATPG
  /// Original NodeId -> good-copy id in `miter` (kNullNode if absent).
  std::vector<net::NodeId> good_of;
  /// Original NodeId -> faulty-copy id in `miter` (kNullNode if absent;
  /// only fanout-cone nodes have faulty copies). For a stem fault the
  /// faulty copy of the site is the constant node.
  std::vector<net::NodeId> faulty_of;
  /// Original NodeId -> XOR comparison node (kNullNode except for observed
  /// kOutput markers of the original network).
  std::vector<net::NodeId> xor_of;
  /// Original PIs feeding the miter (subset of net.inputs(), in order).
  std::vector<net::NodeId> support;
  /// Good-circuit id of the faulted net's driver inside the miter —
  /// asserting it to ~stuck_value is the excitation condition.
  net::NodeId good_fault_net = net::kNullNode;
  /// The constant node carrying the stuck value (equals faulty_of[site]
  /// for stem faults).
  net::NodeId fault_const_node = net::kNullNode;

  const StuckAtFault fault;
  explicit AtpgCircuit(StuckAtFault f) : fault(f) {}
};

/// Builds C_psi^ATPG. Throws std::invalid_argument when the fault names no
/// node or pin, or when the fault site reaches no primary output
/// (trivially untestable, as in net::fault_cone).
///
/// Thread-safe: yes; reads `net` (immutable after construction) and builds
/// a fresh AtpgCircuit per call. The parallel ATPG engine constructs
/// miters for different faults of the same network concurrently. The
/// returned AtpgCircuit itself is a plain value type: safe to move across
/// threads, not internally synchronized for concurrent mutation.
AtpgCircuit build_atpg_circuit(const net::Network& net,
                               const StuckAtFault& fault);

/// C_psi^ATPG as a SAT instance, encoded without building the miter.
struct AtpgInstance {
  /// CIRCUIT-SAT(C_psi^ATPG) followed by the excitation unit clause (the
  /// good value of the faulted net is the complement of the stuck value).
  /// Variable v is miter node v of build_atpg_circuit(net, fault).
  sat::Cnf cnf;
  /// Good-copy variable of each primary input, in Network::inputs() order;
  /// sat::kNullVar for inputs outside the miter's support.
  std::vector<sat::Var> input_vars;
};

/// Scratch of the cone walk that numbers C_psi^ATPG: per-source marks, the
/// cone, the copy maps. Its contents belong to the walk; reusing one across
/// walks (on any networks) only saves their allocation. Only the previous
/// walk's cone is marked, so a warm walk costs O(cone), not O(network).
struct MiterScratch {
  std::vector<std::uint8_t> mark;
  std::vector<net::NodeId> cone;
  std::vector<net::NodeId> good_of;
  std::vector<net::NodeId> faulty_of;
  std::vector<net::NodeId> fanins;
  sat::Clause objective;
};

/// Encodes C_psi^ATPG straight to clauses from one cone walk into `out`,
/// reusing its storage and that of `scratch`: out.cnf equals
/// sat::encode_circuit_sat(build_atpg_circuit(net, fault).miter) plus the
/// excitation unit clause — same variable count, same clauses in the same
/// order with the same literal order. Returns false where
/// build_atpg_circuit throws (no such node or pin, site reaches no output);
/// `out` is then unspecified. Throws std::invalid_argument for a stem
/// fault on a kOutput marker (no good net to excite) and, like
/// encode_circuit_sat, for a wider than 2-input XOR/XNOR in the cone.
///
/// Thread-safe: yes for distinct `scratch` and `out`; reads `net` only.
bool encode_atpg_instance(const net::Network& net, const StuckAtFault& fault,
                          MiterScratch& scratch, AtpgInstance& out);

/// One-shot form of the above with private storage; nullopt where it
/// returns false.
std::optional<AtpgInstance> encode_atpg_instance(const net::Network& net,
                                                 const StuckAtFault& fault);

/// Lemma 4.2/4.3 ordering transfer: given an ordering `h` of the nodes of
/// the original network C, produce the interleaved ordering h_psi of the
/// miter's nodes — each faulty copy immediately after its good counterpart,
/// XORs and output markers in the slots of the original kOutput nodes. The
/// lemma guarantees W(C_psi^ATPG, h_psi) <= 2*W(C, h) + 2 (property-tested
/// across circuit families in the test suite).
std::vector<net::NodeId> transfer_ordering(
    const net::Network& net, const AtpgCircuit& atpg,
    const std::vector<net::NodeId>& h);

}  // namespace cwatpg::fault
