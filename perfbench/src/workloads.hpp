// The four benchmark workloads and the helpers they share: repeated
// set-up, traced engine passes and the deterministic workload profile.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine.hpp"

namespace perfbench {

struct RunContext {
  const Args& args;
  Report& report;
  Gate& gate;
  SpanLog* spans;  ///< non-null iff --trace 1
};

void run_direct(RunContext& ctx);   // drop-heavy, redundant
void run_served(RunContext& ctx);   // served-easy
void run_cluster(RunContext& ctx);  // cluster-2w

/// Set-up repetitions per run: at least kSetupRepeats, and more (up to
/// kSetupMaxRepeats) while the run has spent under kSetupSeconds setting
/// up; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
inline constexpr int kSetupMaxRepeats = 25;
inline constexpr double kSetupSeconds = 1.0;

/// Times `setup`, which must do only what the program does to get ready
/// (start the server or workers, load the circuits): the inputs and the
/// checker's reference results are prepared before, untimed. Reports
/// setup_s. Between repeats `teardown` (untimed) discards the previous
/// state, so the last set-up stays live for the measurement.
void timed_setup(RunContext& ctx, const std::function<void()>& setup,
                 const std::function<void()>& teardown);

/// One job of a workload's engine mix: a circuit, the options it runs
/// with, its direct reference result and how often the traffic runs it.
struct EngineJob {
  const Circuit* circuit = nullptr;
  fault::AtpgOptions options;
  fault::AtpgResult reference;
  std::string digest;  ///< classification_digest(reference)
  int weight = 1;
};

/// Latency samples of a fixed job set that the run repeats pass after
/// pass (the direct and cluster workloads). The machine a benchmark runs
/// on is shared, and other tenants slow it by up to ~1.5x for seconds to
/// minutes at a time; the jobs are deterministic, so each job's latency is
/// the fastest of its repetitions, and the end-to-end metrics are formed
/// from those:
///   faults_per_s  = sum of faults / sum of job latencies,
///   job_p50/p90   = quantiles over the jobs' latencies,
///   load_p50      = median over the jobs' load latencies.
/// These are per-job latencies, one value per job, not a latency
/// distribution: the sample count reported with them is the number of jobs.
struct RepeatedJobs {
  explicit RepeatedJobs(const std::vector<EngineJob>& jobs);
  std::vector<std::vector<double>> job_ms, load_ms;  ///< [job][pass]
  std::vector<double> faults;                        ///< per job
  std::vector<std::string> names;                    ///< per job

  /// Adds the end-to-end metrics, and each job's latency to the context.
  void report(Report& report) const;
};

/// Runs one direct reference for `job` (filling reference and digest)
/// and feeds it to the correctness gate.
void compute_reference(EngineJob& job, Gate& gate);

/// Traced engine passes over `jobs` for `seconds`, interleaved with
/// untraced passes of the same jobs. Reports the fsim/sat/fault per-layer
/// metrics (per weighted pass), the layer shares, trace.overhead_share,
/// the span-log self times, and fails the gate if any traced
/// classification differs from its reference byte for byte.
void engine_layers(RunContext& ctx, const std::vector<EngineJob>& jobs,
                   double seconds);

/// netlist.parse_ms and incremental.miter_build_ms over `circuits`
/// (one parse / one SharedMiterCnf build of each, median of repeats).
void load_layers(RunContext& ctx, const std::vector<Circuit>& circuits);

/// Deterministic class shares of the references (profile.* metrics) and,
/// in traced runs, per-circuit gates / faults / cut-width estimate into
/// the report context.
void profile(RunContext& ctx, const std::vector<EngineJob>& jobs);

/// Applies the committed expected-count gate to the references (the first
/// job of each circuit stands for it), or prints this seed's counts
/// (--emit-expected). Returns true when the run should stop here.
bool expected_gate(RunContext& ctx, const std::vector<EngineJob>& jobs);

}  // namespace perfbench
