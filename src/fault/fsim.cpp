#include "fault/fsim.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cwatpg::fault {
namespace {

/// Event-driven resimulation of one fault against a good frame. The
/// scratch state is sized once per fault_simulate / detection_matrix call
/// and reused for every (fault, 64-pattern block): an epoch stamp marks
/// which faulty values and queue entries belong to the current
/// resimulation, so nothing is cleared or allocated between faults.
///
/// Only nodes whose faulty value differs from the good value on a valid
/// lane are live; every other node reads the good frame. A gate is
/// evaluated only when one of its fanins is live, and gates are processed
/// in logic-level order (one bucket per level), so every live fanin is
/// final before a gate reads it. kOutput markers copy their fanin, so an
/// output is checked at its driver instead of being queued.
class Propagator {
 public:
  explicit Propagator(const net::Network& netw)
      : netw_(netw),
        level_(netw.levels()),
        faulty_(netw.node_count()),
        live_(netw.node_count(), 0),
        queued_(netw.node_count(), 0),
        bucket_(netw.node_count()) {
    // Level l's bucket is the slice [begin_[l], begin_[l] + fill_[l]) of
    // bucket_, sized by the number of nodes on level l: a node is queued
    // at most once per resimulation, so no bucket can overflow.
    const std::uint32_t depth =
        level_.empty() ? 0 : *std::max_element(level_.begin(), level_.end());
    begin_.assign(depth + 2, 0);
    for (const std::uint32_t l : level_) ++begin_[l + 1];
    for (std::uint32_t l = 0; l <= depth; ++l) begin_[l + 1] += begin_[l];
    fill_.assign(depth + 1, 0);
  }

  /// Resimulates `fault` on the lanes of `lane_mask` and returns those on
  /// which some primary output differs from `good`. With `first_hit` the
  /// pass stops at the end of the first level that reaches an output.
  /// Adds the number of gates evaluated to `evals`.
  std::uint64_t run(const StuckAtFault& fault, const net::SimFrame& good,
                    std::uint64_t lane_mask, bool first_hit,
                    std::uint64_t& evals) {
    if (++epoch_ == 0) {  // stamp wrap-around: forget every old stamp
      std::fill(live_.begin(), live_.end(), 0);
      std::fill(queued_.begin(), queued_.end(), 0);
      epoch_ = 1;
    }
    const net::NodeId site = fault.node;
    std::uint64_t diff = 0;
    std::uint32_t top = level_[site];  // highest level queued so far
    // Records `out` as v's faulty value. If it differs from the good value
    // on a valid lane, v becomes live: its kOutput fanouts record the
    // difference and its gate fanouts are queued on their levels.
    const auto settle = [&](net::NodeId v, std::uint64_t out) {
      const std::uint64_t d = (out ^ good[v]) & lane_mask;
      if (d == 0) return;
      faulty_[v] = out;
      live_[v] = epoch_;
      for (const net::NodeId f : netw_.fanouts(v)) {
        if (netw_.type(f) == net::GateType::kOutput) {
          diff |= d;
        } else if (queued_[f] != epoch_) {
          queued_[f] = epoch_;
          const std::uint32_t l = level_[f];
          bucket_[begin_[l] + fill_[l]++] = f;
          top = std::max(top, l);
        }
      }
    };

    // The site's faulty value: the stuck value for a stem fault, the site
    // gate evaluated with its faulted pin stuck for a branch fault.
    const net::GateType site_type = netw_.type(site);
    const std::uint64_t stuck = fault.stuck_value ? ~0ULL : 0ULL;
    std::uint64_t out = stuck;
    if (!fault.is_stem()) {
      const auto fanins = netw_.fanins(site);
      ins_.clear();
      for (std::size_t p = 0; p < fanins.size(); ++p)
        ins_.push_back(static_cast<std::int32_t>(p) == fault.pin
                           ? stuck
                           : good[fanins[p]]);
      if (ins_.empty())
        out = good[site];  // a PI or constant has no pin to fault
      else if (site_type == net::GateType::kOutput)
        out = ins_[0];
      else
        out = net::eval_gate_word(site_type, ins_);
    }
    ++evals;
    if (site_type == net::GateType::kOutput)
      return (out ^ good[site]) & lane_mask;
    settle(site, out);

    for (std::uint32_t l = level_[site] + 1; l <= top; ++l) {
      for (std::uint32_t k = begin_[l]; k < begin_[l] + fill_[l]; ++k) {
        const net::NodeId v = bucket_[k];
        ins_.clear();
        for (const net::NodeId u : netw_.fanins(v))
          ins_.push_back(live_[u] == epoch_ ? faulty_[u] : good[u]);
        ++evals;
        settle(v, net::eval_gate_word(netw_.type(v), ins_));
      }
      fill_[l] = 0;
      if (first_hit && diff != 0) {
        std::fill(fill_.begin() + l + 1, fill_.begin() + top + 1, 0);
        break;
      }
    }
    return diff;
  }

 private:
  const net::Network& netw_;
  const std::vector<std::uint32_t> level_;
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> live_;    ///< faulty_[v] valid iff == epoch_
  std::vector<std::uint32_t> queued_;  ///< v in its bucket iff == epoch_
  std::vector<net::NodeId> bucket_;
  std::vector<std::uint32_t> begin_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint64_t> ins_;
  std::uint32_t epoch_ = 0;
};

/// Calls visit(block, good, lane_mask) for every 64-pattern block of
/// `patterns`, after checking that each pattern has one value per PI.
template <typename Visit>
void for_each_block(const net::Network& netw,
                    std::span<const Pattern> patterns, const char* who,
                    Visit visit) {
  const std::size_t num_pis = netw.inputs().size();
  for (const Pattern& p : patterns)
    if (p.size() != num_pis)
      throw std::invalid_argument(std::string(who) +
                                  ": pattern width mismatch");
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);
    const std::uint64_t lane_mask =
        lanes == 64 ? ~0ULL : ((1ULL << lanes) - 1);
    std::vector<std::uint64_t> pi_words(num_pis, 0);
    for (std::size_t lane = 0; lane < lanes; ++lane)
      for (std::size_t i = 0; i < num_pis; ++i)
        if (patterns[base + lane][i]) pi_words[i] |= 1ULL << lane;
    visit(base / 64, net::simulate64(netw, pi_words), lane_mask);
  }
}

}  // namespace

std::vector<bool> fault_simulate(const net::Network& netw,
                                 std::span<const StuckAtFault> faults,
                                 std::span<const Pattern> patterns,
                                 FsimStats* stats_out) {
  // Effort counters accumulate locally and publish once at the end, so the
  // instrumented hot loop carries no extra memory traffic.
  FsimStats local;
  std::vector<bool> detected(faults.size(), false);
  if (patterns.empty()) {
    if (stats_out != nullptr) ++stats_out->calls;
    return detected;
  }
  Propagator prop(netw);
  for_each_block(netw, patterns, "fault_simulate",
                 [&](std::size_t, const net::SimFrame& good,
                     std::uint64_t lane_mask) {
                   for (std::size_t fi = 0; fi < faults.size(); ++fi) {
                     if (detected[fi]) continue;
                     ++local.resims;
                     if (prop.run(faults[fi], good, lane_mask, true,
                                  local.node_evals) != 0) {
                       detected[fi] = true;
                       ++local.detected;
                     }
                   }
                 });
  local.calls = 1;
  local.faults = faults.size();
  local.patterns = patterns.size();
  if (stats_out != nullptr) *stats_out += local;
  return detected;
}

bool detects(const net::Network& netw, const StuckAtFault& fault,
             const Pattern& pattern) {
  const StuckAtFault faults[] = {fault};
  const Pattern patterns[] = {pattern};
  return fault_simulate(netw, faults, patterns)[0];
}

std::vector<std::vector<std::uint64_t>> detection_matrix(
    const net::Network& netw, std::span<const StuckAtFault> faults,
    std::span<const Pattern> patterns) {
  const std::size_t words = (patterns.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> matrix(
      faults.size(), std::vector<std::uint64_t>(words, 0));
  if (patterns.empty()) return matrix;
  Propagator prop(netw);
  std::uint64_t evals = 0;  // detection_matrix reports no effort counters
  for_each_block(netw, patterns, "detection_matrix",
                 [&](std::size_t word, const net::SimFrame& good,
                     std::uint64_t lane_mask) {
                   for (std::size_t fi = 0; fi < faults.size(); ++fi)
                     matrix[fi][word] =
                         prop.run(faults[fi], good, lane_mask, false, evals);
                 });
  return matrix;
}

double coverage(const net::Network& netw,
                std::span<const StuckAtFault> faults,
                std::span<const Pattern> patterns) {
  if (faults.empty()) return 1.0;
  const auto detected = fault_simulate(netw, faults, patterns);
  const auto n = static_cast<double>(
      std::count(detected.begin(), detected.end(), true));
  return n / static_cast<double>(faults.size());
}

}  // namespace cwatpg::fault
