// cwatpg_perfbench: one run of one benchmark workload.
//
//   cwatpg_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                    [--serve-bin=PATH] [--expected=FILE] [--trace-out=FILE]
//                    [--inject-mismatch] [--emit-expected]
//
// Prints one "metric NAME VALUE UNIT n=SAMPLES" line per metric, a
// "context {...}" line, and as its last line the result object
// {"correct","attempted","failed","metrics"}. With --trace=0 the metrics
// are the end-to-end ones, with --trace=1 the per-layer ones. Exit status
// is 0 only when every output the run checked was correct.
#include <csignal>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Spec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr Spec kEndToEnd[] = {
    {"faults_per_s", "faults/s"}, {"job_p50_ms", "ms"},
    {"job_p90_ms", "ms"},         {"load_p50_ms", "ms"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

constexpr Spec kPerLayer[] = {
    {"engine.wall_ms", "ms"},
    {"fsim.random_ms", "ms"},
    {"fsim.drop_ms", "ms"},
    {"fsim.drop_calls", "count"},
    {"fsim.node_evals", "count"},
    {"fsim.resims", "count"},
    {"sat.encode_ms", "ms"},
    {"sat.search_ms", "ms"},
    {"sat.unsat_ms", "ms"},
    {"sat.instances", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.decisions", "count"},
    {"fault.other_ms", "ms"},
    {"share.fsim_random", "share"},
    {"share.fsim_drop", "share"},
    {"share.sat", "share"},
    {"share.fault_other", "share"},
    {"incremental.miter_build_ms", "ms"},
    {"netlist.parse_ms", "ms"},
    {"svc.overhead_ms", "ms"},
    {"svc.queue.max_depth", "count"},
    {"svc.registry.hits", "count"},
    {"svc.registry.misses", "count"},
    {"svc.registry.load_misses", "count"},
    {"svc.registry.evictions", "count"},
    {"svc.jobs.rejected", "count"},
    {"obs.frame_bytes", "bytes"},
    {"obs.parse_ms", "ms"},
    {"obs.dump_ms", "ms"},
    {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},
    {"cluster.shards", "count"},
    {"cluster.redispatched", "count"},
    {"cluster.shard_p50_ms", "ms"},
    {"cluster.worker_busy_share", "share"},
    {"cluster.solve_inflation", "ratio"},
    {"cluster.merge_ms", "ms"},
    {"cluster.direct_faults_per_s", "faults/s"},
    {"trace.overhead_share", "share"},
    {"profile.dropped_random_share", "share"},
    {"profile.dropped_sim_share", "share"},
    {"profile.sat_detected_share", "share"},
    {"profile.untestable_share", "share"},
    {"profile.max_cut_width", "count"},
};

bool parse_flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (parse_flag(arg, "workload", &v)) {
      args.workload = v;
    } else if (parse_flag(arg, "seed", &v)) {
      args.seed = std::stoull(v);
    } else if (parse_flag(arg, "seconds", &v)) {
      args.seconds = std::stod(v);
    } else if (parse_flag(arg, "trace", &v)) {
      args.trace = v == "1";
    } else if (parse_flag(arg, "serve-bin", &v)) {
      args.serve_bin = v;
    } else if (parse_flag(arg, "expected", &v)) {
      args.expected_path = v;
    } else if (parse_flag(arg, "trace-out", &v)) {
      args.trace_out = v;
    } else if (arg == "--inject-mismatch") {
      args.inject_mismatch = true;
    } else if (arg == "--emit-expected") {
      args.emit_expected = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return args;
}

std::string number(double v) {
  std::ostringstream out;
  out << std::setprecision(10) << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << "cwatpg_perfbench: refusing to measure a build without "
               "optimisation (configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cwatpg_perfbench: " << e.what() << "\n";
    return 2;
  }

  Report report;
  Gate gate;
  SpanLog spans;
  RunContext ctx{args, report, gate, args.trace ? &spans : nullptr};
  try {
    if (args.workload == "drop-heavy" || args.workload == "redundant") {
      run_direct(ctx);
    } else if (args.workload == "served-easy") {
      run_served(ctx);
    } else if (args.workload == "cluster-2w") {
      run_cluster(ctx);
    } else {
      std::cerr << "cwatpg_perfbench: unknown workload '" << args.workload
                << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "cwatpg_perfbench: " << args.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
  if (args.emit_expected) return gate.failed() == 0 ? 0 : 1;
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);

  obs::Json env = obs::Json::object();
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["compiler"] = PERFBENCH_COMPILER;
  env["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  report.context["env"] = std::move(env);
  if (args.trace && !args.trace_out.empty()) {
    spans.write(args.trace_out);
    report.context["span_log"] = args.trace_out;
    report.context["spans"] = static_cast<std::uint64_t>(spans.size());
  }

  obs::Json metrics = obs::Json::object();
  bool complete = true;
  const auto emit = [&](const Spec& spec, bool required) {
    const Metric* found = nullptr;
    for (const Metric& m : report.metrics())
      if (m.name == spec.name) found = &m;
    if (found == nullptr && required) {
      std::cerr << "cwatpg_perfbench: metric " << spec.name
                << " was not measured\n";
      complete = false;
      return;
    }
    const double value = found != nullptr ? found->value : 0.0;
    const std::size_t samples = found != nullptr ? found->samples : 0;
    std::cout << "metric " << spec.name << " " << number(value) << " "
              << spec.unit << " n=" << samples << "\n";
    obs::Json m = obs::Json::object();
    m["value"] = value;
    m["unit"] = spec.unit;
    metrics[spec.name] = std::move(m);
  };
  if (args.trace) {
    for (const Spec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const Spec& spec : kEndToEnd) emit(spec, true);
  }
  std::cout << "context " << report.context.dump() << "\n";
  for (const std::string& why : gate.messages())
    std::cerr << "cwatpg_perfbench: check failed: " << why << "\n";

  const bool correct = complete && gate.failed() == 0;
  obs::Json result = obs::Json::object();
  result["correct"] = correct;
  result["attempted"] = std::max<std::uint64_t>(gate.attempted(), 1);
  result["failed"] = gate.failed();
  result["metrics"] = std::move(metrics);
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}
