#include "sat/twosat.hpp"

#include <algorithm>
#include <stdexcept>

namespace cwatpg::sat {

TwoSat::TwoSat(Var num_vars) : num_vars_(num_vars) {
  implications_.resize(static_cast<std::size_t>(num_vars) * 2);
}

void TwoSat::add_or(Lit a, Lit b) {
  if (a.var() >= num_vars_ || b.var() >= num_vars_)
    throw std::invalid_argument("TwoSat: variable out of range");
  implications_[(~a).code()].push_back(b.code());
  implications_[(~b).code()].push_back(a.code());
}

namespace {

/// Iterative Tarjan SCC over the implication graph.
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<std::uint32_t>>& graph)
      : graph_(graph),
        index_(graph.size(), kUnvisited),
        lowlink_(graph.size(), 0),
        on_stack_(graph.size(), false),
        component_(graph.size(), kUnvisited) {}

  void run() {
    for (std::uint32_t v = 0; v < graph_.size(); ++v)
      if (index_[v] == kUnvisited) strongconnect(v);
  }

  /// Component ids are assigned in reverse topological order: an SCC gets
  /// a *smaller* id than the SCCs it can reach.
  std::uint32_t component(std::uint32_t v) const { return component_[v]; }

 private:
  static constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);

  void strongconnect(std::uint32_t root) {
    struct Frame {
      std::uint32_t vertex;
      std::size_t next_edge;
    };
    std::vector<Frame> call_stack{{root, 0}};
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::uint32_t v = frame.vertex;
      if (frame.next_edge == 0) {
        index_[v] = lowlink_[v] = counter_++;
        scc_stack_.push_back(v);
        on_stack_[v] = true;
      }
      bool descended = false;
      while (frame.next_edge < graph_[v].size()) {
        const std::uint32_t w = graph_[v][frame.next_edge++];
        if (index_[w] == kUnvisited) {
          call_stack.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack_[w]) lowlink_[v] = std::min(lowlink_[v], index_[w]);
      }
      if (descended) continue;
      if (lowlink_[v] == index_[v]) {
        std::uint32_t w;
        do {
          w = scc_stack_.back();
          scc_stack_.pop_back();
          on_stack_[w] = false;
          component_[w] = num_components_;
        } while (w != v);
        ++num_components_;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const std::uint32_t parent = call_stack.back().vertex;
        lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
      }
    }
  }

  const std::vector<std::vector<std::uint32_t>>& graph_;
  std::vector<std::uint32_t> index_, lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::uint32_t> component_;
  std::vector<std::uint32_t> scc_stack_;
  std::uint32_t counter_ = 0;
  std::uint32_t num_components_ = 0;
};

}  // namespace

std::optional<std::vector<bool>> TwoSat::solve() const {
  Tarjan tarjan(implications_);
  tarjan.run();
  std::vector<bool> model(num_vars_);
  for (Var v = 0; v < num_vars_; ++v) {
    const std::uint32_t pos_comp = tarjan.component(pos(v).code());
    const std::uint32_t neg_comp = tarjan.component(neg(v).code());
    if (pos_comp == neg_comp) return std::nullopt;
    // Tarjan finalizes reachable SCCs first, so reachable SCCs have
    // smaller ids; satisfying the literal with the smaller component id
    // respects every implication (if ~x -> x then comp(x) < comp(~x)).
    model[v] = pos_comp < neg_comp;
  }
  return model;
}

bool is_2sat(const Cnf& f) {
  for (const std::span<const Lit> c : f.clauses())
    if (c.size() > 2) return false;
  return true;
}

std::optional<std::vector<bool>> solve_2sat(const Cnf& f) {
  if (!is_2sat(f))
    throw std::invalid_argument("solve_2sat: clause with > 2 literals");
  TwoSat solver(f.num_vars());
  for (const std::span<const Lit> c : f.clauses()) {
    if (c.size() == 1)
      solver.add_unit(c[0]);
    else
      solver.add_or(c[0], c[1]);
  }
  return solver.solve();
}

}  // namespace cwatpg::sat
