// The engine layers timed from outside: run_atpg's pipeline re-assembled
// from its public parts with a timing SimulateFn (fault simulation) and a
// timing SolveProvider (SAT encode + search), so the classification stays
// byte-identical to fault::run_atpg while every millisecond of a job is
// attributed to random-phase fsim, drop fsim, SAT, or the rest of the
// pipeline.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "fault/fsim.hpp"
#include "fault/tegus.hpp"

namespace perfbench {

/// Per-layer effort of one or more traced runs (times in seconds).
struct LayerTimes {
  double wall = 0.0;        ///< around run_atpg_pipeline
  double fsim_random = 0.0;  ///< the random-phase simulate call
  double fsim_drop = 0.0;    ///< single-test drop simulate calls
  std::uint64_t drop_calls = 0;
  fault::FsimStats fsim;
  double sat_call = 0.0;    ///< around SolveProvider begin/solve
  double sat_search = 0.0;  ///< sum of FaultOutcome::solve_seconds
  double sat_unsat = 0.0;   ///< solve_seconds of untestable verdicts
  std::uint64_t instances = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;

  double sat_encode() const { return sat_call - sat_search; }
  double other() const { return wall - fsim_random - fsim_drop - sat_call; }
  LayerTimes& operator+=(const LayerTimes& o);
};

/// run_atpg(net, options) with layer timing; spans go to `spans` when
/// non-null, under a root span "job" tagged `job`.
fault::AtpgResult traced_atpg(const net::Network& net,
                              const fault::AtpgOptions& options,
                              LayerTimes& times, SpanLog* spans,
                              std::uint64_t job);

}  // namespace perfbench
