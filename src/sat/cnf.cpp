#include "sat/cnf.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cwatpg::sat {

bool Cnf::add_clause(std::span<const Lit> clause) {
  if (clause.empty())
    throw std::invalid_argument("Cnf::add_clause: empty clause");
  if (lits_.size() + clause.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("Cnf::add_clause: arena exceeds 2^32 literals");
  const auto begin = static_cast<std::ptrdiff_t>(lits_.size());
  lits_.insert(lits_.end(), clause.begin(), clause.end());
  const auto first = lits_.begin() + begin;
  std::sort(first, lits_.end());
  lits_.erase(std::unique(first, lits_.end()), lits_.end());
  for (auto it = first; it + 1 != lits_.end(); ++it) {
    if (it->var() == (it + 1)->var()) {  // tautology
      lits_.erase(first, lits_.end());
      return false;
    }
  }
  if (lits_.back().var() >= num_vars_) {
    lits_.erase(first, lits_.end());
    throw std::invalid_argument("Cnf::add_clause: variable out of range");
  }
  start_.push_back(static_cast<std::uint32_t>(lits_.size()));
  return true;
}

bool Cnf::eval(const std::vector<bool>& assignment) const {
  if (assignment.size() < num_vars_)
    throw std::invalid_argument("Cnf::eval: assignment too short");
  for (const std::span<const Lit> c : clauses()) {
    bool sat = false;
    for (Lit l : c) {
      if (assignment[l.var()] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::string Cnf::to_dimacs() const {
  std::ostringstream os;
  os << "p cnf " << num_vars_ << ' ' << num_clauses() << '\n';
  for (const std::span<const Lit> c : clauses()) {
    for (Lit l : c)
      os << (l.negated() ? -static_cast<long>(l.var()) - 1
                         : static_cast<long>(l.var()) + 1)
         << ' ';
    os << "0\n";
  }
  return os.str();
}

}  // namespace cwatpg::sat
