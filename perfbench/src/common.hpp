// Shared plumbing for the cwatpg benchmark program: arguments, sample
// statistics, the metric report, the in-memory span log, the correctness
// gate and the workload circuits.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/tegus.hpp"
#include "netlist/network.hpp"
#include "obs/json.hpp"

namespace perfbench {

using namespace cwatpg;

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;      ///< cwatpg_serve binary (cluster-2w workers)
  std::string expected_path;  ///< committed per-circuit expected counts
  std::string trace_out;      ///< span log written at exit (--trace 1)
  bool inject_mismatch = false;  ///< self-test: corrupt one fault status
  bool emit_expected = false;    ///< print this seed's counts and exit
};

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Ordered metric list plus free-form context printed before the result.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Extra JSON context (environment, profile) echoed on its own line.
  obs::Json context = obs::Json::object();

 private:
  std::vector<Metric> metrics_;
};

// ---- spans ----------------------------------------------------------------

/// Spans kept in memory during a traced run and written out at exit as
/// JSON lines: {"name","start","end","parent","job"} with times in
/// microseconds since the log was created and parent the index of the
/// enclosing span (-1 for a root).
class SpanLog {
 public:
  SpanLog();
  /// Opens a span; returns its index.
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t job);
  void close(std::int64_t index);
  /// Self time (duration minus direct children) summed per span name, ms.
  std::map<std::string, double> self_ms() const;
  void write(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::int64_t parent;
    std::uint64_t job;
  };
  double epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---- correctness gate -------------------------------------------------------

/// Counts attempted operations and failures (errors, refusals, lost or
/// mismatched responses). Any failure makes the run incorrect.
class Gate {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// First few failure messages, for stderr.
  std::vector<std::string> messages() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
};

// ---- circuits -------------------------------------------------------------

/// One workload circuit as the program receives it: bench text, the
/// network parsed back from that text, and its collapsed fault list.
struct Circuit {
  std::string name;
  std::string text;
  net::Network net;
  std::vector<fault::StuckAtFault> faults;
};

/// Generates the named suite members (ISCAS85-like and MCNC-like suites at
/// scale 1.0, suite seed derived from `seed`) and round-trips each through
/// the bench format. Throws if a name is unknown.
std::vector<Circuit> make_circuits(const std::vector<std::string>& names,
                                   std::uint64_t seed);

/// splitmix64 mix of (seed, salt): per-job seeds derived from the
/// workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Deterministic per-fault digest of an ATPG result: status, engine,
/// attempts, instance shape, solver counters and test of every fault, then
/// every test pattern. Timing fields are excluded, so two runs of the same
/// job agree byte for byte.
std::string classification_digest(const fault::AtpgResult& result);

/// The checker self-test's corruption: turns an untestable verdict into a
/// detected one and anything else into untestable.
inline void flip_status(fault::FaultStatus& status) {
  status = status == fault::FaultStatus::kUntestable
               ? fault::FaultStatus::kDetected
               : fault::FaultStatus::kUntestable;
}

// ---- cwatpg.rpc/1 -----------------------------------------------------------

/// {"schema","id","kind","params"} request frame.
obs::Json request(std::uint64_t id, const char* kind, obs::Json params);

/// Fault-for-fault, test-for-test signature of a run_atpg result in the
/// wire's per-fault record form (raw_outcomes), wall-clock fields removed.
std::string expected_wire(const fault::AtpgResult& result);

/// The same signature from a served or clustered run_atpg response
/// (requested with raw_outcomes). `flip` corrupts the first record's
/// status before the signature is formed: the checker self-test.
std::string received_wire(const obs::Json& result, std::size_t num_inputs,
                          bool flip);

/// Per-circuit class counts as the correctness gate compares them.
struct ClassCounts {
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  std::uint64_t untestable = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t dropped_sim = 0;
  std::uint64_t sat_detected = 0;
};
ClassCounts count_classes(const fault::AtpgResult& result);
obs::Json to_json(const ClassCounts& counts);

/// Checks a reference (direct) result: zero aborted or undetermined
/// faults, and every attributed test re-detects its fault.
void check_reference(const Circuit& circuit, const fault::AtpgResult& result,
                     Gate& gate);

/// Compares per-circuit counts with the committed expectation for this
/// workload and seed, when the file has one. Returns whether a committed
/// expectation existed.
bool check_expected(const std::string& path, const std::string& workload,
                    std::uint64_t seed,
                    const std::map<std::string, ClassCounts>& counts,
                    Gate& gate);

/// Peak resident set of this process plus the largest reaped child, MiB.
double peak_rss_mb();

}  // namespace perfbench
