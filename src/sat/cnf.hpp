// CNF formula representation (§2 of the paper).
//
// A formula is a set of clauses; a clause a set of literals; a literal a
// variable or its complement. Variables are dense 0-based indices — for
// formulas built by sat::encode_circuit_sat, variable v *is* network NodeId
// v, which is what lets circuit orderings (cut-width orderings, Lemma 4.2
// transfers) be used directly as SAT variable orderings.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <string>
#include <vector>

namespace cwatpg::sat {

using Var = std::uint32_t;
inline constexpr Var kNullVar = static_cast<Var>(-1);

/// Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var var, bool negated)
      : code_(var * 2 + (negated ? 1u : 0u)) {}

  constexpr Var var() const { return code_ / 2; }
  constexpr bool negated() const { return (code_ & 1u) != 0; }
  constexpr Lit operator~() const { return from_code(code_ ^ 1u); }
  constexpr std::uint32_t code() const { return code_; }

  friend constexpr bool operator==(Lit a, Lit b) = default;
  friend constexpr auto operator<=>(Lit a, Lit b) = default;

  static constexpr Lit from_code(std::uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

 private:
  std::uint32_t code_ = 0;
};

/// Positive literal of v.
constexpr Lit pos(Var v) { return Lit(v, false); }
/// Negative literal of v.
constexpr Lit neg(Var v) { return Lit(v, true); }

/// A clause being built or learnt, outside any Cnf (a Cnf stores its
/// clauses flat; see below).
using Clause = std::vector<Lit>;

/// CNF formula. Clauses are stored in insertion order; semantic identity is
/// as a set (the cache-based solver canonicalizes where needed).
///
/// Storage: every clause lives in one literal arena, indexed by an offset
/// table (clause i is the arena's [start[i], start[i+1])), so adding a
/// clause allocates nothing once the arena has grown, and reset() empties
/// the formula without giving the memory back — what lets one Cnf be
/// re-filled per fault.
class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(Var num_vars) : num_vars_(num_vars) {}

  /// Empties the formula to `num_vars` variables and no clauses, keeping
  /// the arena's capacity.
  void reset(Var num_vars = 0) {
    num_vars_ = num_vars;
    lits_.clear();
    start_.resize(1);
  }

  Var num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return start_.size() - 1; }
  /// Literals of clause i (sorted, duplicate-free). Invalidated by the
  /// next add_clause (the arena may reallocate).
  std::span<const Lit> clause(std::size_t i) const {
    return {lits_.data() + start_[i], lits_.data() + start_[i + 1]};
  }
  /// Every clause in insertion order, each as clause(i) gives it.
  auto clauses() const {
    return std::views::iota(std::size_t{0}, num_clauses()) |
           std::views::transform([this](std::size_t i) { return clause(i); });
  }

  /// Ensures variables up to v exist.
  void grow_to(Var v) {
    if (v >= num_vars_) num_vars_ = v + 1;
  }
  /// Allocates and returns a fresh variable.
  Var new_var() { return num_vars_++; }

  /// Adds a clause; deduplicates repeated literals, drops tautologies
  /// (x ∨ ¬x). Returns false if the clause was a tautology (not added).
  /// Throws std::invalid_argument on out-of-range variables or an empty
  /// clause (an empty clause makes the formula trivially UNSAT — callers
  /// encode that state explicitly instead), std::length_error when the
  /// arena would pass 2^32 literals. The literals are copied to the
  /// arena's tail and normalized there, so `clause` must not point into
  /// this Cnf.
  bool add_clause(std::span<const Lit> clause);
  bool add_clause(std::initializer_list<Lit> clause) {
    return add_clause(std::span<const Lit>(clause.begin(), clause.size()));
  }

  /// Evaluates the formula under a complete assignment.
  bool eval(const std::vector<bool>& assignment) const;

  /// Total literal count across clauses: the arena's size.
  std::size_t num_literals() const { return lits_.size(); }
  /// Bytes of the formula's storage: the literal arena plus the offset
  /// table, by size (spare capacity is not counted).
  std::size_t storage_bytes() const {
    return lits_.size() * sizeof(Lit) + start_.size() * sizeof(start_[0]);
  }

  /// DIMACS-style rendering for debugging and golden tests.
  std::string to_dimacs() const;

 private:
  Var num_vars_ = 0;
  std::vector<Lit> lits_;                  // every clause's literals
  std::vector<std::uint32_t> start_{0};    // arena offsets, + sentinel
};

}  // namespace cwatpg::sat
