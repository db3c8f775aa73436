#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "core/bounds.hpp"
#include "core/cutwidth.hpp"
#include "core/mla.hpp"
#include "fault/atpg_circuit.hpp"
#include "fault/tegus.hpp"
#include "gen/hutton.hpp"
#include "gen/structured.hpp"
#include "gen/trees.hpp"
#include "netlist/cone.hpp"
#include "netlist/decompose.hpp"
#include "netlist/simulate.hpp"
#include "sat/encode.hpp"
#include "util/rng.hpp"

namespace cwatpg::fault {
namespace {

/// Reference check: the miter's output is 1 exactly when the pattern
/// detects the fault (good vs faulty simulation differ on some observed
/// PO). Exercised over random patterns.
void expect_miter_behaviour(const net::Network& n, const StuckAtFault& fault,
                            std::uint64_t seed) {
  const AtpgCircuit atpg = build_atpg_circuit(n, fault);
  ASSERT_NO_THROW(atpg.miter.validate());
  cwatpg::Rng rng(seed);
  for (int t = 0; t < 8; ++t) {
    // Random full-circuit pattern.
    std::vector<bool> pattern(n.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i)
      pattern[i] = rng.chance(0.5);

    // Reference: does the pattern detect the fault?
    std::vector<std::uint64_t> words(pattern.size());
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = pattern[i] ? ~0ULL : 0ULL;
    const net::SimFrame good = net::simulate64(n, words);
    // Faulty value: inject at the branch/stem by re-simulation through the
    // miter is what we are testing, so build the reference by brute eval of
    // the faulted network semantics using fsim-style injection:
    bool detected = false;
    {
      // Scalar faulty sim with pin-accurate injection.
      std::vector<bool> value(n.node_count());
      for (std::size_t i = 0; i < n.inputs().size(); ++i)
        value[n.inputs()[i]] = pattern[i];
      for (net::NodeId id = 0; id < n.node_count(); ++id) {
        const auto& node = n.node(id);
        bool out = value[id];
        switch (node.type) {
          case net::GateType::kInput:
            out = value[id];
            break;
          case net::GateType::kConst0:
            out = false;
            break;
          case net::GateType::kConst1:
            out = true;
            break;
          default: {
            std::vector<std::uint64_t> ins;
            for (std::size_t p = 0; p < node.fanins.size(); ++p) {
              bool v = value[node.fanins[p]];
              if (!fault.is_stem() && id == fault.node &&
                  static_cast<std::int32_t>(p) == fault.pin)
                v = fault.stuck_value;
              ins.push_back(v ? ~0ULL : 0ULL);
            }
            if (node.type == net::GateType::kOutput)
              out = ins[0] != 0;
            else
              out = (net::eval_gate_word(node.type, ins) & 1) != 0;
            break;
          }
        }
        if (fault.is_stem() && id == fault.node) out = fault.stuck_value;
        value[id] = out;
      }
      for (net::NodeId po : n.outputs())
        if (value[po] != ((good[po] & 1) != 0)) detected = true;
    }

    // Miter evaluation on the corresponding support pattern.
    std::vector<bool> miter_pattern;
    for (net::NodeId pi : atpg.support) {
      std::size_t index = 0;
      for (std::size_t i = 0; i < n.inputs().size(); ++i)
        if (n.inputs()[i] == pi) index = i;
      miter_pattern.push_back(pattern[index]);
    }
    const auto miter_values = atpg.miter.eval(miter_pattern);
    bool miter_out = false;
    for (net::NodeId po : atpg.miter.outputs())
      miter_out = miter_out || miter_values[po];
    ASSERT_EQ(miter_out, detected)
        << to_string(n, fault) << " pattern " << t;
  }
}

TEST(AtpgCircuit, StemFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  expect_miter_behaviour(n, {*n.find("11"), StuckAtFault::kStem, true}, 1);
  expect_miter_behaviour(n, {*n.find("11"), StuckAtFault::kStem, false}, 2);
  expect_miter_behaviour(n, {*n.find("22"), StuckAtFault::kStem, false}, 3);
}

TEST(AtpgCircuit, PiFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  expect_miter_behaviour(n, {*n.find("3"), StuckAtFault::kStem, true}, 4);
  expect_miter_behaviour(n, {*n.find("1"), StuckAtFault::kStem, false}, 5);
}

TEST(AtpgCircuit, BranchFaultMiterBehaviour) {
  const net::Network n = gen::c17();
  // Branch faults on the fanout branches of signal 11.
  expect_miter_behaviour(n, {*n.find("16"), 1, true}, 6);
  expect_miter_behaviour(n, {*n.find("19"), 0, false}, 7);
}

TEST(AtpgCircuit, SweepAllFaultsOnSmallCircuits) {
  for (const net::Network& n :
       {net::decompose(gen::ripple_carry_adder(2)),
        net::decompose(gen::comparator(2)), gen::fig4a_network()}) {
    std::uint64_t seed = 10;
    for (const StuckAtFault& f : all_faults(n)) {
      try {
        expect_miter_behaviour(n, f, seed++);
      } catch (const std::invalid_argument&) {
        // unobservable site: acceptable only if it truly reaches no PO
        const auto tfo = net::transitive_fanout(n, f.node);
        bool reaches = false;
        for (net::NodeId po : n.outputs()) reaches = reaches || tfo[po];
        EXPECT_FALSE(reaches);
      }
    }
  }
}

TEST(AtpgCircuit, MiterOutputsMatchObservedPos) {
  const net::Network n = gen::c17();
  const AtpgCircuit a =
      build_atpg_circuit(n, {*n.find("10"), StuckAtFault::kStem, true});
  EXPECT_EQ(a.miter.outputs().size(), 1u);  // G10 reaches only out 22
  const AtpgCircuit b =
      build_atpg_circuit(n, {*n.find("11"), StuckAtFault::kStem, true});
  EXPECT_EQ(b.miter.outputs().size(), 2u);
}

TEST(AtpgCircuit, SupportIsSubsetOfPis) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(6));
  // A fault deep in the carry chain does not depend on later operand bits.
  const auto faults = collapsed_fault_list(n);
  const AtpgCircuit atpg = build_atpg_circuit(n, faults.front());
  EXPECT_LE(atpg.support.size(), n.inputs().size());
  for (net::NodeId pi : atpg.support)
    EXPECT_EQ(n.type(pi), net::GateType::kInput);
}

TEST(AtpgCircuit, InvalidFaultsThrow) {
  const net::Network n = gen::c17();
  EXPECT_THROW(build_atpg_circuit(n, {999, StuckAtFault::kStem, true}),
               std::invalid_argument);
  EXPECT_THROW(build_atpg_circuit(n, {*n.find("22"), 7, true}),
               std::invalid_argument);
}

TEST(AtpgCircuit, UnobservableSiteThrows) {
  net::Network n;
  const auto a = n.add_input("a");
  n.add_gate(net::GateType::kNot, {a});  // dangling
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  EXPECT_THROW(build_atpg_circuit(n, {1, StuckAtFault::kStem, true}),
               std::invalid_argument);
}

// --- Direct encoding --------------------------------------------------------

/// C_psi^ATPG as it was built before the miter had its own cone walk:
/// net::fault_cone's whole-network masks, the good copy and the faulty copy
/// in source id order, then one XOR per declared output. An independent
/// reference for the walk's numbering. Throws where that construction
/// threw (std::invalid_argument).
struct ReferenceMiter {
  net::Network miter;
  net::NodeId excite = net::kNullNode;
};

ReferenceMiter reference_miter(const net::Network& netw,
                               const StuckAtFault& fault) {
  if (fault.node >= netw.node_count())
    throw std::invalid_argument("no such node");
  if (!fault.is_stem() &&
      (fault.pin < 0 ||
       static_cast<std::size_t>(fault.pin) >= netw.fanins(fault.node).size()))
    throw std::invalid_argument("no such pin");
  const net::NodeId root = fault.node;
  const std::vector<bool> tfo = net::transitive_fanout(netw, root);
  const net::SubCircuit cone = net::fault_cone(netw, root);  // may throw
  std::vector<bool> in_cone(netw.node_count(), false);
  for (net::NodeId src : cone.to_src) in_cone[src] = true;

  ReferenceMiter ref;
  net::Network& m = ref.miter;
  const std::size_t n = netw.node_count();
  std::vector<net::NodeId> good(n, net::kNullNode), bad(n, net::kNullNode);
  for (net::NodeId id = 0; id < n; ++id) {
    if (!in_cone[id]) continue;
    const auto& node = netw.node(id);
    if (node.type == net::GateType::kInput) {
      good[id] = m.add_input();
    } else if (node.type == net::GateType::kConst0 ||
               node.type == net::GateType::kConst1) {
      good[id] = m.add_const(node.type == net::GateType::kConst1);
    } else if (node.type != net::GateType::kOutput) {
      std::vector<net::NodeId> fis;
      for (net::NodeId fi : node.fanins) fis.push_back(good[fi]);
      good[id] = m.add_gate(node.type, fis);
    }
  }
  net::NodeId stuck = net::kNullNode;
  const auto ensure_stuck = [&] {
    if (stuck == net::kNullNode) stuck = m.add_const(fault.stuck_value);
    return stuck;
  };
  for (net::NodeId id = 0; id < n; ++id) {
    const auto& node = netw.node(id);
    if (!tfo[id] || node.type == net::GateType::kOutput) continue;
    if (id == root && fault.is_stem()) {
      bad[id] = ensure_stuck();
      continue;
    }
    std::vector<net::NodeId> fis;
    for (std::size_t p = 0; p < node.fanins.size(); ++p) {
      const net::NodeId fi = node.fanins[p];
      if (id == root && static_cast<std::int32_t>(p) == fault.pin)
        fis.push_back(ensure_stuck());
      else
        fis.push_back(tfo[fi] ? bad[fi] : good[fi]);
    }
    bad[id] = m.add_gate(node.type, fis);
  }
  for (net::NodeId po : netw.outputs()) {
    if (!in_cone[po]) continue;
    const net::NodeId driver = netw.fanins(po)[0];
    net::NodeId faulty = tfo[driver] ? bad[driver] : good[driver];
    if (po == root && !fault.is_stem()) faulty = ensure_stuck();
    m.add_output(m.add_gate(net::GateType::kXor, {good[driver], faulty}));
  }
  ref.excite = fault.is_stem()
                   ? good[root]
                   : good[netw.fanins(root)[static_cast<std::size_t>(
                         fault.pin)]];
  return ref;
}

/// The miter's CIRCUIT-SAT encoding plus the excitation unit clause — what
/// the per-fault engine solved before it encoded straight from the walk.
sat::Cnf miter_encoding(const net::Network& miter, net::NodeId excite,
                        bool stuck_value) {
  sat::Cnf cnf = sat::encode_circuit_sat(miter);
  cnf.add_clause({sat::Lit(excite, stuck_value)});
  return cnf;
}

void expect_same_network(const net::Network& a, const net::Network& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (net::NodeId id = 0; id < a.node_count(); ++id) {
    EXPECT_EQ(a.type(id), b.type(id)) << "node " << id;
    EXPECT_TRUE(std::ranges::equal(a.fanins(id), b.fanins(id)))
        << "node " << id;
  }
}

/// encode_atpg_instance == encode_circuit_sat(miter) + excitation unit,
/// clause for clause, with the miter from both the reference construction
/// and build_atpg_circuit; nullopt exactly where the reference throws.
void expect_direct_encoding(const net::Network& n, const StuckAtFault& f) {
  SCOPED_TRACE(f.node >= n.node_count() ? std::string("bad node")
                                        : to_string(n, f));
  std::optional<ReferenceMiter> ref;
  try {
    ref.emplace(reference_miter(n, f));
  } catch (const std::invalid_argument&) {
  }
  const std::optional<AtpgInstance> direct = encode_atpg_instance(n, f);
  ASSERT_EQ(direct.has_value(), ref.has_value());
  if (!ref) {
    EXPECT_THROW(build_atpg_circuit(n, f), std::invalid_argument);
    return;
  }
  const AtpgCircuit built = build_atpg_circuit(n, f);
  expect_same_network(built.miter, ref->miter);
  EXPECT_EQ(built.good_fault_net, ref->excite);

  const sat::Cnf expected =
      miter_encoding(ref->miter, ref->excite, f.stuck_value);
  const sat::Cnf& got = direct->cnf;
  ASSERT_EQ(got.num_vars(), expected.num_vars());
  ASSERT_EQ(got.num_clauses(), expected.num_clauses());
  for (std::size_t i = 0; i < got.num_clauses(); ++i)
    ASSERT_TRUE(std::ranges::equal(got.clause(i), expected.clause(i)))
        << "clause " << i;

  ASSERT_EQ(direct->input_vars.size(), n.inputs().size());
  for (std::size_t i = 0; i < n.inputs().size(); ++i) {
    const net::NodeId g = built.good_of[n.inputs()[i]];
    EXPECT_EQ(direct->input_vars[i],
              g == net::kNullNode ? sat::kNullVar : sat::Var{g});
  }
}

TEST(AtpgEncoding, DirectEqualsMiterEncodingOnEveryFault) {
  std::vector<net::Network> circuits = {
      gen::c17(), gen::fig4a_network(), gen::ripple_carry_adder(4),
      gen::hamming_ecc(8), net::decompose(gen::comparator(3))};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::HuttonParams p;
    p.num_gates = 80;
    p.num_inputs = 10;
    p.num_outputs = 5;
    p.locality = 0.6;
    p.unbounded_reconvergence = seed % 2 == 0;
    p.seed = seed;
    circuits.push_back(gen::hutton_random(p));
  }
  for (const net::Network& n : circuits)
    for (const StuckAtFault& f : all_faults(n)) expect_direct_encoding(n, f);
}

// One scratch and one instance reused across faults of two networks (three
// faults on one, then three on the other), unreachable faults included,
// encode exactly what a fresh call does.
TEST(AtpgEncoding, ReusedScratchEncodesLikeAFreshCall) {
  const net::Network circuits[] = {gen::ripple_carry_adder(4),
                                   net::decompose(gen::comparator(3))};
  MiterScratch scratch;
  AtpgInstance reused;
  for (std::size_t k = 0; k < 60; ++k) {
    const net::Network& n = circuits[(k / 3) % 2];
    const std::vector<StuckAtFault> faults = all_faults(n);
    StuckAtFault f = faults[(k * 7) % faults.size()];
    if (k % 5 == 4) f.node = static_cast<net::NodeId>(n.node_count());
    const std::optional<AtpgInstance> fresh = encode_atpg_instance(n, f);
    ASSERT_EQ(encode_atpg_instance(n, f, scratch, reused), fresh.has_value())
        << "step " << k;
    if (!fresh) continue;
    EXPECT_EQ(reused.cnf.to_dimacs(), fresh->cnf.to_dimacs()) << "step " << k;
    EXPECT_EQ(reused.input_vars, fresh->input_vars) << "step " << k;
  }
}

TEST(AtpgEncoding, StemFaultOnPrimaryInput) {
  const net::Network n = gen::c17();
  const StuckAtFault f{*n.find("3"), StuckAtFault::kStem, false};
  expect_direct_encoding(n, f);
  // The PI's faulty copy is the stuck constant; the excitation unit sits
  // on the PI's own good variable.
  const AtpgCircuit atpg = build_atpg_circuit(n, f);
  EXPECT_EQ(atpg.faulty_of[f.node], atpg.fault_const_node);
  const auto direct = encode_atpg_instance(n, f);
  ASSERT_TRUE(direct.has_value());
  const std::span<const sat::Lit> unit =
      direct->cnf.clause(direct->cnf.num_clauses() - 1);
  ASSERT_EQ(unit.size(), 1u);
  EXPECT_EQ(unit[0], sat::pos(atpg.good_of[f.node]));
}

TEST(AtpgEncoding, BranchFaultOnOutputPin) {
  // g drives PO o1 and an inverter to PO o2, so o1's pin is a branch site
  // whose faulty signal is the stuck constant itself. The miter has no
  // faulty gate: the constant follows the good copy {a, b, g} and feeds
  // o1's XOR directly (the reference creates it inside its XOR loop).
  net::Network n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(net::GateType::kAnd, {a, b}, "g");
  const auto o1 = n.add_output(g, "o1");
  n.add_output(n.add_gate(net::GateType::kNot, {g}, "h"), "o2");
  const StuckAtFault f{o1, 0, true};
  const std::vector<StuckAtFault> faults = all_faults(n);
  ASSERT_NE(std::find(faults.begin(), faults.end(), f), faults.end());
  expect_direct_encoding(n, f);

  const AtpgCircuit atpg = build_atpg_circuit(n, f);
  EXPECT_EQ(atpg.fault_const_node, 3u);
  EXPECT_EQ(atpg.xor_of[o1], 4u);
  EXPECT_EQ(atpg.miter.node_count(), 6u);
  EXPECT_EQ(atpg.miter.fanins(4)[1], 3u);
  const auto direct = encode_atpg_instance(n, f);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->cnf.num_vars(), 6u);
}

TEST(AtpgEncoding, ConstantFedGate) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto one = n.add_const(true, "one");
  const auto zero = n.add_const(false, "zero");
  const auto g = n.add_gate(net::GateType::kAnd, {a, one}, "g");
  const auto h = n.add_gate(net::GateType::kOr, {g, zero}, "h");
  n.add_output(h, "o1");
  n.add_output(n.add_gate(net::GateType::kXor, {g, a}, "x"), "o2");
  for (const StuckAtFault& f : all_faults(n)) expect_direct_encoding(n, f);
  // Branch and stem faults on the constants themselves.
  expect_direct_encoding(n, {one, StuckAtFault::kStem, false});
  expect_direct_encoding(n, {g, 1, false});
  expect_direct_encoding(n, {h, 1, true});
}

TEST(AtpgEncoding, UnreachableAndInvalidFaults) {
  net::Network n;
  const auto a = n.add_input("a");
  const auto dangle = n.add_gate(net::GateType::kNot, {a});
  n.add_output(n.add_gate(net::GateType::kBuf, {a}), "o");
  // A stem fault on an output marker has a miter (XOR of the driver with
  // itself, no stuck constant) but no good net to excite.
  const StuckAtFault marker_stem{n.outputs()[0], StuckAtFault::kStem, true};
  expect_same_network(build_atpg_circuit(n, marker_stem).miter,
                      reference_miter(n, marker_stem).miter);
  EXPECT_THROW(encode_atpg_instance(n, marker_stem), std::invalid_argument);

  for (const StuckAtFault& f :
       {StuckAtFault{dangle, StuckAtFault::kStem, true},
        StuckAtFault{999, StuckAtFault::kStem, false},
        StuckAtFault{dangle, 3, false}, StuckAtFault{a, 0, true}}) {
    EXPECT_FALSE(encode_atpg_instance(n, f).has_value());
    expect_direct_encoding(n, f);
    Pattern test;
    SatWorkspace workspace;
    EXPECT_EQ(generate_test(n, f, {}, workspace, test).status,
              FaultStatus::kUnreachable);
  }
}

// --- Lemma 4.2 --------------------------------------------------------------

TEST(TransferOrdering, IsPermutationOfMiter) {
  const net::Network n = gen::c17();
  const StuckAtFault f{*n.find("11"), StuckAtFault::kStem, true};
  const AtpgCircuit atpg = build_atpg_circuit(n, f);
  const auto h = core::identity_ordering(n.node_count());
  const auto h_psi = transfer_ordering(n, atpg, h);
  EXPECT_NO_THROW(core::positions_of(h_psi, atpg.miter.node_count()));
}

TEST(TransferOrdering, RejectsWrongSize) {
  const net::Network n = gen::c17();
  const AtpgCircuit atpg =
      build_atpg_circuit(n, {*n.find("11"), StuckAtFault::kStem, true});
  EXPECT_THROW(transfer_ordering(n, atpg, {0, 1, 2}), std::invalid_argument);
}

/// Lemma 4.2 property: W(C_psi^ATPG, h_psi) <= 2 W(C,h) + 2.
void expect_lemma42(const net::Network& n, const core::Ordering& h) {
  const std::uint32_t w = core::cut_width(n, h);
  for (const StuckAtFault& f : collapsed_fault_list(n)) {
    AtpgCircuit atpg = [&]() -> AtpgCircuit {
      return build_atpg_circuit(n, f);
    }();
    const auto h_psi = transfer_ordering(n, atpg, h);
    const std::uint32_t w_psi = core::cut_width(atpg.miter, h_psi);
    EXPECT_LE(w_psi, core::lemma42_rhs(w)) << to_string(n, f);
  }
}

TEST(Lemma42, HoldsOnC17Topological) {
  const net::Network n = gen::c17();
  expect_lemma42(n, core::identity_ordering(n.node_count()));
}

TEST(Lemma42, HoldsOnC17MlaOrdering) {
  const net::Network n = gen::c17();
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnFig4aNetwork) {
  const net::Network n = gen::fig4a_network();
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnAdder) {
  const net::Network n = net::decompose(gen::ripple_carry_adder(4));
  expect_lemma42(n, core::mla(n).order);
}

TEST(Lemma42, HoldsOnTree) {
  const net::Network n = gen::and_or_tree(16, 2);
  expect_lemma42(n, core::tree_ordering(n));
}

class Lemma42RandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma42RandomSweep, HoldsOnRandomCircuits) {
  gen::HuttonParams p;
  p.num_gates = 60;
  p.num_inputs = 8;
  p.num_outputs = 4;
  p.seed = GetParam();
  const net::Network n = gen::hutton_random(p);
  expect_lemma42(n, core::mla(n).order);
  // Random orders too — the lemma's construction is order-agnostic.
  cwatpg::Rng rng(GetParam());
  core::Ordering random_h = core::identity_ordering(n.node_count());
  for (std::size_t i = random_h.size(); i > 1; --i)
    std::swap(random_h[i - 1], random_h[rng.below(i)]);
  expect_lemma42(n, random_h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma42RandomSweep,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace cwatpg::fault
