#include "sat/implications.hpp"

#include <algorithm>
#include <set>

namespace cwatpg::sat {

bool unit_propagate(const Cnf& f, std::span<const Lit> assumptions,
                    std::vector<Lit>& implied_out) {
  implied_out.clear();
  // 0 = unassigned, 1 = true, 2 = false (per variable).
  std::vector<std::uint8_t> value(f.num_vars(), 0);
  std::vector<Lit> queue;
  auto assign = [&](Lit l) -> bool {
    const std::uint8_t want = l.negated() ? 2 : 1;
    std::uint8_t& slot = value[l.var()];
    if (slot == want) return true;
    if (slot != 0) return false;  // conflict
    slot = want;
    queue.push_back(l);
    return true;
  };
  for (Lit a : assumptions)
    if (!assign(a)) return false;
  const std::size_t num_assumptions = queue.size();

  // Naive BCP: rescan clauses until fixpoint. Fine at preprocessing scale.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::span<const Lit> c : f.clauses()) {
      Lit unassigned;
      std::size_t free_count = 0;
      bool satisfied = false;
      for (Lit l : c) {
        const std::uint8_t v = value[l.var()];
        if (v == 0) {
          unassigned = l;
          ++free_count;
        } else if ((v == 1) != l.negated()) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (free_count == 0) return false;  // empty clause
      if (free_count == 1) {
        if (!assign(unassigned)) return false;
        changed = true;
      }
    }
  }
  implied_out.assign(queue.begin() + static_cast<std::ptrdiff_t>(num_assumptions),
                     queue.end());
  return true;
}

Cnf add_static_implications(const Cnf& f, ImplicationStats* stats_out,
                            const ImplicationConfig& config) {
  ImplicationStats stats;
  Cnf out = f;

  // Existing binary clauses, for the skip_direct filter.
  std::set<std::pair<std::uint32_t, std::uint32_t>> binaries;
  for (const std::span<const Lit> c : f.clauses()) {
    if (c.size() == 2)
      binaries.insert({std::min(c[0].code(), c[1].code()),
                       std::max(c[0].code(), c[1].code())});
  }

  std::vector<Lit> implied;
  std::size_t learned = 0;
  for (Var v = 0; v < f.num_vars() && learned < config.max_learned; ++v) {
    bool failed[2] = {false, false};
    for (int sign = 0; sign < 2; ++sign) {
      const Lit l(v, sign == 1);
      ++stats.literals_tested;
      const Lit assumption[] = {l};
      if (!unit_propagate(f, assumption, implied)) {
        failed[sign] = true;
        ++stats.failed_literals;
        out.add_clause({~l});
        ++learned;
        continue;
      }
      for (Lit m : implied) {
        if (learned >= config.max_learned) break;
        const Lit a = ~l;
        const auto key = std::make_pair(std::min(a.code(), m.code()),
                                        std::max(a.code(), m.code()));
        if (config.skip_direct && binaries.count(key)) continue;
        if (a.var() == m.var()) continue;  // tautology or unit, skip
        out.add_clause({a, m});
        binaries.insert(key);
        ++stats.binaries_added;
        ++learned;
      }
    }
    if (failed[0] && failed[1]) stats.proved_unsat = true;
  }
  if (stats_out) *stats_out = stats;
  return out;
}

}  // namespace cwatpg::sat
