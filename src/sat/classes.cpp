#include "sat/classes.hpp"

#include <stdexcept>

#include "sat/twosat.hpp"
#include "util/lp.hpp"

namespace cwatpg::sat {

bool is_horn(const Cnf& f) {
  for (const std::span<const Lit> c : f.clauses()) {
    std::size_t positives = 0;
    for (Lit l : c)
      if (!l.negated()) ++positives;
    if (positives > 1) return false;
  }
  return true;
}

bool is_reverse_horn(const Cnf& f) {
  for (const std::span<const Lit> c : f.clauses()) {
    std::size_t negatives = 0;
    for (Lit l : c)
      if (l.negated()) ++negatives;
    if (negatives > 1) return false;
  }
  return true;
}

std::optional<std::vector<bool>> hidden_horn_renaming(const Cnf& f) {
  // Renaming variable r_v == true means "complement v". After renaming,
  // literal l is positive iff (l positive) xor flip(l.var()). Horn-ness
  // demands every clause keep at most one positive literal: for every
  // pair (l1, l2) in a clause, not both positive after renaming:
  //   (posAfter(l1) -> ~posAfter(l2)),
  // where posAfter(pos x) == ~r_x and posAfter(neg x) == r_x — a 2-SAT
  // constraint (~p1 ∨ ~p2) over renaming literals.
  TwoSat two_sat(f.num_vars());
  auto pos_after = [](Lit l) {
    // The renaming literal that is TRUE exactly when l is positive after
    // renaming.
    return l.negated() ? pos(l.var()) : neg(l.var());
  };
  for (const std::span<const Lit> c : f.clauses()) {
    for (std::size_t i = 0; i < c.size(); ++i)
      for (std::size_t j = i + 1; j < c.size(); ++j) {
        if (c[i].var() == c[j].var()) continue;
        two_sat.add_or(~pos_after(c[i]), ~pos_after(c[j]));
      }
  }
  return two_sat.solve();
}

QHorn q_horn(const Cnf& f, std::size_t max_vars) {
  if (f.num_vars() > max_vars)
    throw std::invalid_argument("q_horn: instance exceeds max_vars");
  const std::size_t n = f.num_vars();
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  a.reserve(f.num_clauses());
  b.reserve(f.num_clauses());
  for (const std::span<const Lit> c : f.clauses()) {
    std::vector<double> row(n, 0.0);
    double rhs = 1.0;
    for (Lit l : c) {
      if (l.negated()) {
        row[l.var()] -= 1.0;
        rhs -= 1.0;
      } else {
        row[l.var()] += 1.0;
      }
    }
    a.push_back(std::move(row));
    b.push_back(rhs);
  }
  QHorn result;
  if (auto x = lp_feasible(a, b, std::vector<double>(n, 1.0))) {
    result.is_qhorn = true;
    result.alpha = std::move(*x);
  }
  return result;
}

ClassReport classify(const Cnf& f, std::size_t qhorn_max_vars) {
  ClassReport report;
  report.horn = is_horn(f);
  report.reverse_horn = is_reverse_horn(f);
  report.two_sat = is_2sat(f);
  report.hidden_horn = hidden_horn_renaming(f).has_value();
  if (f.num_vars() <= qhorn_max_vars) {
    report.qhorn_checked = true;
    report.qhorn = q_horn(f, qhorn_max_vars).is_qhorn;
  }
  return report;
}

std::string to_string(const ClassReport& r) {
  std::string s;
  auto append = [&s](const char* name) {
    if (!s.empty()) s += ",";
    s += name;
  };
  if (r.horn) append("horn");
  if (r.reverse_horn) append("rev-horn");
  if (r.two_sat) append("2sat");
  if (r.hidden_horn) append("hidden-horn");
  if (r.qhorn_checked && r.qhorn) append("q-horn");
  if (!r.qhorn_checked) append("q-horn?");
  return s.empty() ? "none" : s;
}

}  // namespace cwatpg::sat
