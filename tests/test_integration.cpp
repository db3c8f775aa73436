// End-to-end integration tests: the full pipelines the benches exercise,
// at test-friendly scale.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "core/mla.hpp"
#include "fault/tegus.hpp"
#include "gen/structured.hpp"
#include "gen/suites.hpp"
#include "gen/trees.hpp"
#include "netlist/cone.hpp"
#include "netlist/decompose.hpp"
#include "sat/cache_sat.hpp"
#include "sat/encode.hpp"
#include "util/curvefit.hpp"

namespace cwatpg {
namespace {

TEST(Integration, AtpgOverMiniSuite) {
  // The Figure 1 pipeline end to end: suite -> ATPG -> per-instance stats.
  gen::SuiteOptions opts;
  opts.scale = 0.1;
  std::size_t instances = 0;
  for (const net::Network& n : gen::iscas85_like_suite(opts)) {
    fault::AtpgOptions atpg;
    atpg.random_blocks = 1;
    const fault::AtpgResult r = fault::run_atpg(n, atpg);
    EXPECT_EQ(r.num_aborted, 0u) << n.name();
    EXPECT_GE(r.fault_efficiency(), 1.0) << n.name();
    for (const auto& o : r.outcomes)
      if (o.sat_vars > 0) ++instances;
  }
  EXPECT_GT(instances, 20u);
}

TEST(Integration, Figure8PipelinePerFaultWidths) {
  // Per-fault cone -> MLA width -> log fit: the Figure 8 pipeline.
  gen::SuiteOptions opts;
  opts.scale = 0.15;
  std::vector<double> sizes, widths;
  for (const net::Network& n : gen::mcnc_like_suite(opts)) {
    const auto faults = fault::collapsed_fault_list(n);
    for (std::size_t i = 0; i < faults.size(); i += 16) {
      try {
        const net::SubCircuit cone =
            net::fault_cone(n, fault::fault_cone_root(faults[i]));
        const core::MlaResult r = core::mla(cone.circuit);
        sizes.push_back(static_cast<double>(cone.circuit.node_count()));
        widths.push_back(static_cast<double>(r.width));
      } catch (const std::invalid_argument&) {
        // unobservable fault site — excluded, as in the paper
      }
    }
  }
  ASSERT_GT(sizes.size(), 50u);
  const auto fits = fit_all(sizes, widths);
  ASSERT_FALSE(fits.empty());
  // The winning fit must be sub-linear (log, or power/linear with gentle
  // growth — at this miniature scale absolute slopes are inflated).
  const Fit& best = fits.front();
  const bool sublinear =
      best.model == FitModel::kLogarithmic ||
      (best.model == FitModel::kPower && best.b < 1.0) ||
      (best.model == FitModel::kLinear && best.a < 0.12);
  EXPECT_TRUE(sublinear) << best.describe();
}

TEST(Integration, CacheSatWithMlaOrderOnAtpgInstances) {
  // Algorithm 1 + Lemma 4.2 transferred MLA ordering on real ATPG-SAT
  // miters: must agree with the CDCL solver.
  const net::Network n = net::decompose(gen::ripple_carry_adder(3));
  const core::MlaResult circuit_mla = core::mla(n);
  const auto faults = fault::collapsed_fault_list(n);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < faults.size() && checked < 12; i += 3) {
    const fault::AtpgCircuit atpg = fault::build_atpg_circuit(n, faults[i]);
    const auto h_psi = fault::transfer_ordering(n, atpg, circuit_mla.order);
    const sat::Cnf f = sat::encode_circuit_sat(atpg.miter);
    const std::vector<sat::Var> order(h_psi.begin(), h_psi.end());
    const auto cached = sat::cache_sat(f, order);
    const auto cdcl = sat::solve_cnf(f);
    ASSERT_EQ(cached.status, cdcl.status)
        << fault::to_string(n, faults[i]);
    ++checked;
  }
  EXPECT_GE(checked, 8u);
}

TEST(Integration, Theorem41BoundHoldsOnAtpgMiters) {
  const net::Network n = gen::fig4a_network();
  const core::MlaResult circuit_mla = core::mla(n);
  for (const auto& f : fault::collapsed_fault_list(n)) {
    const fault::AtpgCircuit atpg = fault::build_atpg_circuit(n, f);
    const auto h_psi = fault::transfer_ordering(n, atpg, circuit_mla.order);
    const std::uint32_t w = core::cut_width(atpg.miter, h_psi);
    const sat::Cnf cnf = sat::encode_circuit_sat(atpg.miter);
    const std::vector<sat::Var> order(h_psi.begin(), h_psi.end());
    sat::CacheSatConfig cfg;
    cfg.early_sat = false;
    const auto r = sat::cache_sat(cnf, order, cfg);
    const double bound = core::theorem41_log2_bound(
        atpg.miter.node_count(), atpg.miter.max_fanout(), w);
    EXPECT_LE(std::log2(static_cast<double>(r.stats.nodes)), bound)
        << fault::to_string(n, f);
  }
}

TEST(Integration, TestSetFromAtpgAchievesCoverageOnRecheck) {
  // Generate tests, then *independently* fault-simulate the final test
  // set: coverage must match the engine's claim.
  const net::Network n = net::decompose(gen::simple_alu(3));
  const fault::AtpgResult r = fault::run_atpg(n);
  const auto faults = fault::collapsed_fault_list(n);
  const double recheck = fault::coverage(n, faults, r.tests);
  EXPECT_DOUBLE_EQ(recheck, r.fault_coverage());
}

TEST(Integration, WidthPredictsCacheSatTreeSize) {
  // The qualitative heart of the paper: a good (low-width) ordering gives
  // a smaller backtracking tree than a bad one on the same formula.
  const net::Network n = gen::and_or_tree(24, 2);
  const sat::Cnf f = sat::encode_circuit_sat(n);
  const core::Ordering good = core::tree_ordering(n);
  core::Ordering bad = core::identity_ordering(n.node_count());
  // Interleave ends to maximize spread (a deliberately terrible order).
  core::Ordering worst;
  std::size_t lo = 0, hi = bad.size();
  while (lo < hi) {
    worst.push_back(bad[lo++]);
    if (lo < hi) worst.push_back(bad[--hi]);
  }
  sat::CacheSatConfig cfg;
  cfg.early_sat = false;
  const auto good_run =
      sat::cache_sat(f, std::vector<sat::Var>(good.begin(), good.end()), cfg);
  const auto bad_run = sat::cache_sat(
      f, std::vector<sat::Var>(worst.begin(), worst.end()), cfg);
  EXPECT_EQ(good_run.status, bad_run.status);
  EXPECT_LT(good_run.stats.nodes, bad_run.stats.nodes);
}

TEST(Integration, SuiteAtpgSatInstancesAreEasy) {
  // Mini Figure 1: the overwhelming share of instances solve with few
  // conflicts.
  gen::SuiteOptions opts;
  opts.scale = 0.15;
  const auto suite = gen::iscas85_like_suite(opts);
  std::size_t easy = 0, total = 0;
  for (const net::Network& n : suite) {
    fault::AtpgOptions atpg;
    atpg.random_blocks = 0;
    atpg.drop_by_simulation = false;
    const fault::AtpgResult r = fault::run_atpg(n, atpg);
    for (const auto& o : r.outcomes) {
      if (o.sat_vars == 0) continue;
      ++total;
      if (o.solver_stats.conflicts < 100) ++easy;
    }
  }
  ASSERT_GT(total, 100u);
  EXPECT_GT(static_cast<double>(easy) / static_cast<double>(total), 0.9);
}

}  // namespace
}  // namespace cwatpg
