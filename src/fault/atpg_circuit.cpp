#include "fault/atpg_circuit.hpp"

#include <algorithm>
#include <stdexcept>

#include "sat/encode.hpp"

namespace cwatpg::fault {
namespace {

/// The role of a miter node, reported to MiterWalk::number's visitor.
enum class Role : std::uint8_t {
  kGood,    ///< good copy of a source node
  kStuck,   ///< the constant carrying the stuck value
  kFaulty,  ///< faulty copy of a fanout-cone node
  kXor,     ///< comparison XOR of an observed primary output
  kMarker,  ///< kOutput marker fed by that XOR
};

/// The one definition of C_psi^ATPG: the cone walk from the fault root and
/// the numbering of the miter's nodes. All scratch lives in a MiterScratch
/// that may be reused from walk to walk.
class MiterWalk {
 public:
  enum class Error : std::uint8_t {
    kNone,
    kNoSuchNode,
    kNoSuchPin,
    kUnobservable,
  };

  MiterWalk(const net::Network& netw, const StuckAtFault& fault,
            MiterScratch& scratch)
      : netw_(netw),
        fault_(fault),
        root_(fault_cone_root(fault)),
        mark_(scratch.mark),
        cone_(scratch.cone),
        good_of_(scratch.good_of),
        faulty_of_(scratch.faulty_of),
        fis_(scratch.fanins) {
    const std::size_t n = netw.node_count();
    // Only the previous walk's cone is marked: clear just those marks.
    if (mark_.size() != n) {
      mark_.assign(n, 0);
    } else {
      for (const net::NodeId v : cone_) mark_[v] = 0;
    }
    cone_.clear();
    if (fault.node >= n) {
      error_ = Error::kNoSuchNode;
      return;
    }
    const auto pins = netw.fanins(fault.node).size();
    if (!fault.is_stem() &&
        (fault.pin < 0 || static_cast<std::size_t>(fault.pin) >= pins)) {
      error_ = Error::kNoSuchPin;
      return;
    }
    // The fanout cone of the root (a DFS over fanouts), then its fanin
    // closure: C_psi^sub = TFI(TFO(root)), as net::fault_cone defines it.
    mark_[root_] = kTfo | kCone;
    cone_.push_back(root_);
    bool observed = netw.type(root_) == net::GateType::kOutput;
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      for (net::NodeId fo : netw.fanouts(cone_[i])) {
        if (mark_[fo] != 0) continue;
        mark_[fo] = kTfo | kCone;
        cone_.push_back(fo);
        observed = observed || netw.type(fo) == net::GateType::kOutput;
      }
    }
    if (!observed) {
      error_ = Error::kUnobservable;
      return;
    }
    for (std::size_t i = 0; i < cone_.size(); ++i) {
      for (net::NodeId fi : netw.fanins(cone_[i])) {
        if (mark_[fi] != 0) continue;
        mark_[fi] = kCone;
        cone_.push_back(fi);
      }
    }
    // Source id order is topological; the miter keeps it.
    std::sort(cone_.begin(), cone_.end());
    good_of_.resize(n);
    faulty_of_.resize(n);
  }

  Error error() const { return error_; }

  bool in_cone(net::NodeId src) const { return (mark_[src] & kCone) != 0; }
  /// Miter id of the good copy of a non-kOutput cone node (after number()).
  net::NodeId good(net::NodeId src) const { return good_of_[src]; }

  /// Good-copy miter id of the faulted net — asserting it to ~stuck_value
  /// is the excitation condition. kNullNode for a stem fault on a kOutput
  /// marker, which has no good copy. Valid after number().
  net::NodeId good_fault_net() const {
    if (fault_.is_stem())
      return netw_.type(root_) == net::GateType::kOutput ? net::kNullNode
                                                          : good_of_[root_];
    return good_of_[netw_.fanins(root_)[static_cast<std::size_t>(fault_.pin)]];
  }

  /// Calls visit(id, role, type, src, fanins) for every miter node in id
  /// order: the good copy of every non-kOutput cone node in source id
  /// order; the stuck constant; the faulty copy of every other non-kOutput
  /// fanout-cone node in source id order; then one (XOR, marker) pair per
  /// observed primary output. `src` is the source node (the root for the
  /// stuck constant of a stem fault, kNullNode for that of a branch
  /// fault); `fanins` are miter ids.
  template <class Visit>
  void number(Visit&& visit) {
    net::NodeId next = 0;
    std::vector<net::NodeId>& fis = fis_;
    for (net::NodeId src : cone_) {
      const net::GateType type = netw_.type(src);
      if (type == net::GateType::kOutput) continue;  // observed POs: XORs
      fis.clear();
      for (net::NodeId fi : netw_.fanins(src)) fis.push_back(good_of_[fi]);
      good_of_[src] = next;
      visit(next++, Role::kGood, type, src, std::span<const net::NodeId>(fis));
    }

    // The stuck constant is the root's faulty copy for a stem fault and the
    // faulted pin's value for a branch fault. The root has the lowest id
    // of its fanout cone, so the constant leads the faulty copy (for a
    // branch fault on a primary-output pin, whose fanout cone is the
    // marker alone, it directly precedes that output's XOR). A stem fault
    // on a marker has no faulty copy and no constant.
    const bool branch = !fault_.is_stem();
    const auto pin = static_cast<std::size_t>(fault_.pin);
    net::NodeId stuck = net::kNullNode;
    if (branch || netw_.type(root_) != net::GateType::kOutput) {
      stuck = next++;
      visit(stuck, Role::kStuck,
            fault_.stuck_value ? net::GateType::kConst1
                               : net::GateType::kConst0,
            branch ? net::kNullNode : root_, std::span<const net::NodeId>());
      if (!branch) faulty_of_[root_] = stuck;
    }
    for (net::NodeId src : cone_) {
      const net::GateType type = netw_.type(src);
      if ((mark_[src] & kTfo) == 0 || type == net::GateType::kOutput) continue;
      if (src == root_ && !branch) continue;  // the stuck constant
      fis.clear();
      const auto fanins = netw_.fanins(src);
      for (std::size_t p = 0; p < fanins.size(); ++p) {
        const net::NodeId fi = fanins[p];
        if (src == root_ && p == pin)
          fis.push_back(stuck);
        else
          fis.push_back((mark_[fi] & kTfo) != 0 ? faulty_of_[fi]
                                                : good_of_[fi]);
      }
      faulty_of_[src] = next;
      visit(next++, Role::kFaulty, type, src,
            std::span<const net::NodeId>(fis));
    }

    // Output markers are created by add_output only, so their id order is
    // Network::outputs() order: the pairs follow the declared outputs.
    for (net::NodeId po : cone_) {
      if (netw_.type(po) != net::GateType::kOutput) continue;
      const net::NodeId driver = netw_.fanins(po)[0];
      const net::NodeId good_sig = good_of_[driver];
      net::NodeId faulty_sig = good_sig;
      if (po == root_ && branch)
        faulty_sig = stuck;  // fault on the PO pin
      else if ((mark_[driver] & kTfo) != 0)
        faulty_sig = faulty_of_[driver];
      const net::NodeId pair[] = {good_sig, faulty_sig};
      const net::NodeId x = next++;
      visit(x, Role::kXor, net::GateType::kXor, po,
            std::span<const net::NodeId>(pair));
      visit(next++, Role::kMarker, net::GateType::kOutput, po,
            std::span<const net::NodeId>(&x, 1));
    }
  }

 private:
  static constexpr std::uint8_t kTfo = 1;   ///< in the root's fanout cone
  static constexpr std::uint8_t kCone = 2;  ///< in TFI(TFO(root))

  const net::Network& netw_;
  const StuckAtFault fault_;
  const net::NodeId root_;
  Error error_ = Error::kNone;
  std::vector<std::uint8_t>& mark_;     ///< per source node: kTfo | kCone
  std::vector<net::NodeId>& cone_;      ///< cone nodes, ascending
  std::vector<net::NodeId>& good_of_;   ///< source -> good-copy miter id
  std::vector<net::NodeId>& faulty_of_; ///< source -> faulty-copy miter id
  std::vector<net::NodeId>& fis_;       ///< number(): one node's fanins
};

}  // namespace

AtpgCircuit build_atpg_circuit(const net::Network& netw,
                               const StuckAtFault& fault) {
  MiterScratch scratch;
  MiterWalk walk(netw, fault, scratch);
  switch (walk.error()) {
    case MiterWalk::Error::kNone:
      break;
    case MiterWalk::Error::kNoSuchNode:
      throw std::invalid_argument("build_atpg_circuit: no such node");
    case MiterWalk::Error::kNoSuchPin:
      throw std::invalid_argument("build_atpg_circuit: no such pin");
    case MiterWalk::Error::kUnobservable:
      throw std::invalid_argument(
          "build_atpg_circuit: fault site reaches no output");
  }

  AtpgCircuit atpg(fault);
  const std::size_t n = netw.node_count();
  atpg.good_of.assign(n, net::kNullNode);
  atpg.faulty_of.assign(n, net::kNullNode);
  atpg.xor_of.assign(n, net::kNullNode);
  net::Network& miter = atpg.miter;
  miter.set_name(netw.name() + "_atpg");

  walk.number([&](net::NodeId id, Role role, net::GateType type,
                  net::NodeId src, std::span<const net::NodeId> fanins) {
    std::vector<net::NodeId> fis(fanins.begin(), fanins.end());
    net::NodeId got = net::kNullNode;
    switch (role) {
      case Role::kGood:
        if (type == net::GateType::kInput) {
          got = miter.add_input(netw.name_of(src));
          atpg.support.push_back(src);
        } else if (type == net::GateType::kConst0 ||
                   type == net::GateType::kConst1) {
          got = miter.add_const(type == net::GateType::kConst1);
        } else {
          got = miter.add_gate(type, std::move(fis), netw.name_of(src));
        }
        atpg.good_of[src] = got;
        break;
      case Role::kStuck:
        got = miter.add_const(fault.stuck_value, "stuck_const");
        atpg.fault_const_node = got;
        if (src != net::kNullNode) atpg.faulty_of[src] = got;
        break;
      case Role::kFaulty:
        got = miter.add_gate(type, std::move(fis), netw.name_of(src) + "_f");
        atpg.faulty_of[src] = got;
        break;
      case Role::kXor:
        got = miter.add_gate(type, std::move(fis), netw.name_of(src) + "_xor");
        atpg.xor_of[src] = got;
        break;
      case Role::kMarker:
        got = miter.add_output(fanins[0], netw.name_of(src));
        break;
    }
    if (got != id)
      throw std::logic_error("build_atpg_circuit: miter numbering diverged");
  });

  atpg.good_fault_net = walk.good_fault_net();
  miter.validate();
  return atpg;
}

bool encode_atpg_instance(const net::Network& netw, const StuckAtFault& fault,
                          MiterScratch& scratch, AtpgInstance& out) {
  MiterWalk walk(netw, fault, scratch);
  if (walk.error() != MiterWalk::Error::kNone) return false;

  sat::Cnf& cnf = out.cnf;
  cnf.reset();
  sat::Clause& objective = scratch.objective;
  objective.clear();
  walk.number([&](net::NodeId id, Role role, net::GateType type,
                  net::NodeId /*src*/, std::span<const net::NodeId> fanins) {
    cnf.grow_to(id);
    sat::add_node_clauses(cnf, type, id, fanins);
    if (role == Role::kMarker) objective.push_back(sat::pos(id));
  });
  // CIRCUIT-SAT's output clause, then the excitation unit: the good value
  // of the faulted net must differ from the stuck value. Implied by any
  // satisfying assignment; stating it prunes the search (as TEGUS does).
  cnf.add_clause(objective);
  const net::NodeId excite = walk.good_fault_net();
  if (excite == net::kNullNode)
    throw std::invalid_argument(
        "encode_atpg_instance: a stem fault on an output marker has no "
        "good net to excite");
  cnf.add_clause({sat::Lit(excite, fault.stuck_value)});

  out.input_vars.clear();
  for (net::NodeId pi : netw.inputs())
    out.input_vars.push_back(walk.in_cone(pi) ? walk.good(pi) : sat::kNullVar);
  return true;
}

std::optional<AtpgInstance> encode_atpg_instance(const net::Network& netw,
                                                 const StuckAtFault& fault) {
  MiterScratch scratch;
  AtpgInstance instance;
  if (!encode_atpg_instance(netw, fault, scratch, instance))
    return std::nullopt;
  return instance;
}

std::vector<net::NodeId> transfer_ordering(const net::Network& netw,
                                           const AtpgCircuit& atpg,
                                           const std::vector<net::NodeId>& h) {
  if (h.size() != netw.node_count())
    throw std::invalid_argument("transfer_ordering: |h| != |V_C|");
  std::vector<net::NodeId> order;
  order.reserve(atpg.miter.node_count());
  const bool branch_fault = !atpg.fault.is_stem();
  for (net::NodeId v : h) {
    if (atpg.good_of[v] != net::kNullNode) order.push_back(atpg.good_of[v]);
    if (branch_fault && v == atpg.fault.node &&
        atpg.fault_const_node != net::kNullNode)
      order.push_back(atpg.fault_const_node);
    if (atpg.faulty_of[v] != net::kNullNode)
      order.push_back(atpg.faulty_of[v]);
    if (atpg.xor_of[v] != net::kNullNode) {
      order.push_back(atpg.xor_of[v]);
      // The kOutput marker fed by this XOR sits in the same slot.
      order.push_back(atpg.miter.fanouts(atpg.xor_of[v])[0]);
    }
  }
  if (order.size() != atpg.miter.node_count())
    throw std::logic_error("transfer_ordering: lost miter nodes");
  return order;
}

}  // namespace cwatpg::fault
