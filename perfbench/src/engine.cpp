#include "engine.hpp"

#include <memory>

#include "fault/incremental.hpp"

namespace perfbench {
namespace {

/// RAII span that is free when no log is attached.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t parent,
        std::uint64_t job)
      : log_(log), index_(log != nullptr ? log->open(name, parent, job) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  std::int64_t index() const { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_;
};

/// Wraps the strategy run_atpg itself plugs in (generate_test per fault,
/// or the serial incremental provider) and times every call into it.
class TimingProvider final : public fault::detail::SolveProvider {
 public:
  TimingProvider(const fault::AtpgOptions& options, LayerTimes& times,
                 SpanLog* spans, std::int64_t parent, std::uint64_t job)
      : config_(fault::detail::per_fault_solver_config(options)),
        times_(times),
        spans_(spans),
        parent_(parent),
        job_(job) {
    if (options.engine == fault::AtpgEngine::kIncremental)
      incremental_ =
          std::make_unique<fault::detail::IncrementalProvider>(options);
  }

  void begin(const net::Network& net,
             std::span<const fault::StuckAtFault> faults,
             std::span<const std::size_t> work_list,
             const std::vector<bool>& dropped) override {
    net_ = &net;
    faults_ = faults;
    if (!incremental_) return;
    Scope span(spans_, "sat", parent_, job_);
    const double t0 = now_s();
    incremental_->begin(net, faults, work_list, dropped);
    times_.sat_call += now_s() - t0;
  }

  fault::FaultOutcome solve(std::size_t fault_index,
                            fault::Pattern& test_out) override {
    Scope span(spans_, "sat", parent_, job_);
    const double t0 = now_s();
    fault::FaultOutcome outcome =
        incremental_ ? incremental_->solve(fault_index, test_out)
                     : fault::generate_test(*net_, faults_[fault_index],
                                            config_, test_out);
    times_.sat_call += now_s() - t0;
    times_.sat_search += outcome.solve_seconds;
    if (outcome.status == fault::FaultStatus::kUntestable)
      times_.sat_unsat += outcome.solve_seconds;
    if (outcome.engine != fault::SolveEngine::kNone) ++times_.instances;
    times_.conflicts += outcome.solver_stats.conflicts;
    times_.propagations += outcome.solver_stats.propagations;
    times_.decisions += outcome.solver_stats.decisions;
    return outcome;
  }

 private:
  sat::SolverConfig config_;
  LayerTimes& times_;
  SpanLog* spans_;
  std::int64_t parent_;
  std::uint64_t job_;
  std::unique_ptr<fault::detail::IncrementalProvider> incremental_;
  const net::Network* net_ = nullptr;
  std::span<const fault::StuckAtFault> faults_;
};

}  // namespace

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  wall += o.wall;
  fsim_random += o.fsim_random;
  fsim_drop += o.fsim_drop;
  drop_calls += o.drop_calls;
  fsim += o.fsim;
  sat_call += o.sat_call;
  sat_search += o.sat_search;
  sat_unsat += o.sat_unsat;
  instances += o.instances;
  conflicts += o.conflicts;
  propagations += o.propagations;
  decisions += o.decisions;
  return *this;
}

fault::AtpgResult traced_atpg(const net::Network& net,
                              const fault::AtpgOptions& options,
                              LayerTimes& times, SpanLog* spans,
                              std::uint64_t job) {
  const double t0 = now_s();
  Scope root(spans, "job", -1, job);
  // The random phase is the pipeline's one multi-pattern call; drop
  // simulation (after a SAT test or an escalated one) passes one pattern.
  const auto simulate = [&](std::span<const fault::StuckAtFault> faults,
                            std::span<const fault::Pattern> patterns) {
    const bool random = patterns.size() > 1;
    Scope span(spans, random ? "fsim.random" : "fsim.drop", root.index(),
               job);
    const double s0 = now_s();
    std::vector<bool> detected =
        fault::fault_simulate(net, faults, patterns, &times.fsim);
    const double dt = now_s() - s0;
    if (random) {
      times.fsim_random += dt;
    } else {
      times.fsim_drop += dt;
      ++times.drop_calls;
    }
    return detected;
  };
  TimingProvider provider(options, times, spans, root.index(), job);
  fault::AtpgResult result =
      fault::detail::run_atpg_pipeline(net, options, provider, simulate);
  times.wall += now_s() - t0;
  return result;
}

}  // namespace perfbench
