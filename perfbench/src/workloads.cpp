#include "workloads.hpp"

#include <algorithm>
#include <iostream>

#include "core/mla.hpp"
#include "fault/incremental.hpp"
#include "netlist/bench_io.hpp"
#include "obs/report.hpp"

namespace perfbench {

void timed_setup(RunContext& ctx, const std::function<void()>& setup,
                 const std::function<void()>& teardown) {
  std::vector<double> seconds;
  double spent = 0.0;
  while (static_cast<int>(seconds.size()) < kSetupRepeats ||
         (spent < kSetupSeconds &&
          static_cast<int>(seconds.size()) < kSetupMaxRepeats)) {
    if (!seconds.empty()) teardown();
    const double t0 = now_s();
    setup();
    seconds.push_back(now_s() - t0);
    spent += seconds.back();
  }
  ctx.report.add("setup_s", median(seconds), "s", seconds.size());
}

RepeatedJobs::RepeatedJobs(const std::vector<EngineJob>& jobs)
    : job_ms(jobs.size()), load_ms(jobs.size()) {
  for (const EngineJob& job : jobs) {
    faults.push_back(static_cast<double>(job.circuit->faults.size()));
    names.push_back(job.circuit->name);
  }
}

void RepeatedJobs::report(Report& report) const {
  std::vector<double> jobs, loads;
  double total_faults = 0.0, total_s = 0.0;
  std::size_t passes = job_ms.empty() ? 0 : job_ms.front().size();
  obs::Json per_job = obs::Json::object();
  obs::Json per_load = obs::Json::object();
  for (std::size_t j = 0; j < job_ms.size(); ++j) {
    jobs.push_back(*std::min_element(job_ms[j].begin(), job_ms[j].end()));
    loads.push_back(*std::min_element(load_ms[j].begin(), load_ms[j].end()));
    total_faults += faults[j];
    total_s += jobs.back() / 1e3;
    passes = std::min(passes, job_ms[j].size());
    per_job[names[j]] = jobs.back();
    per_load[names[j]] = loads.back();
  }
  report.context["job_ms"] = std::move(per_job);
  report.context["load_ms"] = std::move(per_load);
  report.context["passes"] = static_cast<std::uint64_t>(passes);
  // One fastest latency per job: the samples behind each figure are the
  // jobs, not their repetitions.
  const std::size_t n = jobs.size();
  report.add("faults_per_s", total_faults / std::max(total_s, 1e-12),
             "faults/s", n);
  report.add("job_p50_ms", quantile(jobs, 0.5), "ms", n);
  report.add("job_p90_ms", quantile(jobs, 0.9), "ms", n);
  report.add("load_p50_ms", quantile(loads, 0.5), "ms", n);
}

void compute_reference(EngineJob& job, Gate& gate) {
  job.reference = fault::run_atpg(job.circuit->net, job.options);
  job.digest = classification_digest(job.reference);
  check_reference(*job.circuit, job.reference, gate);
}

bool expected_gate(RunContext& ctx, const std::vector<EngineJob>& jobs) {
  std::map<std::string, ClassCounts> counts;
  for (const EngineJob& job : jobs)
    counts.emplace(job.circuit->name, count_classes(job.reference));
  if (ctx.args.emit_expected) {
    obs::Json j = obs::Json::object();
    for (const auto& [name, c] : counts) j[name] = to_json(c);
    std::cout << j.dump() << "\n";
    return true;
  }
  const bool committed = check_expected(ctx.args.expected_path,
                                        ctx.args.workload, ctx.args.seed,
                                        counts, ctx.gate);
  ctx.report.context["expected_counts_checked"] = committed;
  return false;
}

void engine_layers(RunContext& ctx, const std::vector<EngineJob>& jobs,
                   double seconds) {
  LayerTimes total;        // weighted sum over traced passes
  std::vector<double> traced_walls, plain_walls;
  std::uint64_t job_id = 0;
  const double deadline = now_s() + seconds;
  do {
    // Untraced pass: fault::run_atpg itself, same jobs.
    double plain = 0.0;
    for (const EngineJob& job : jobs) {
      const double t0 = now_s();
      fault::run_atpg(job.circuit->net, job.options);
      plain += (now_s() - t0) * job.weight;
    }
    plain_walls.push_back(plain);

    double traced = 0.0;
    for (const EngineJob& job : jobs) {
      LayerTimes t;
      const fault::AtpgResult r =
          traced_atpg(job.circuit->net, job.options, t, ctx.spans, ++job_id);
      ctx.gate.attempt();
      if (classification_digest(r) != job.digest)
        ctx.gate.fail(job.circuit->name +
                      ": traced classification differs from untraced");
      traced += t.wall * job.weight;
      for (int w = 0; w < job.weight; ++w) total += t;
    }
    traced_walls.push_back(traced);
  } while (now_s() < deadline);

  const std::size_t passes = traced_walls.size();
  const double per_pass = 1e3 / static_cast<double>(passes);
  Report& rep = ctx.report;
  rep.add("engine.wall_ms", total.wall * per_pass, "ms", passes);
  rep.add("fsim.random_ms", total.fsim_random * per_pass, "ms", passes);
  rep.add("fsim.drop_ms", total.fsim_drop * per_pass, "ms", passes);
  rep.add("fsim.drop_calls", static_cast<double>(total.drop_calls) / passes,
          "count", passes);
  rep.add("fsim.node_evals",
          static_cast<double>(total.fsim.node_evals) / passes, "count", passes);
  rep.add("fsim.resims", static_cast<double>(total.fsim.resims) / passes,
          "count", passes);
  rep.add("sat.encode_ms", total.sat_encode() * per_pass, "ms", passes);
  rep.add("sat.search_ms", total.sat_search * per_pass, "ms", passes);
  rep.add("sat.unsat_ms", total.sat_unsat * per_pass, "ms", passes);
  rep.add("sat.instances", static_cast<double>(total.instances) / passes,
          "count", passes);
  rep.add("sat.conflicts", static_cast<double>(total.conflicts) / passes,
          "count", passes);
  rep.add("sat.propagations", static_cast<double>(total.propagations) / passes,
          "count", passes);
  rep.add("sat.decisions", static_cast<double>(total.decisions) / passes,
          "count", passes);
  rep.add("fault.other_ms", total.other() * per_pass, "ms", passes);
  const double wall = std::max(total.wall, 1e-12);
  rep.add("share.fsim_random", total.fsim_random / wall, "share", passes);
  rep.add("share.fsim_drop", total.fsim_drop / wall, "share", passes);
  rep.add("share.sat", total.sat_call / wall, "share", passes);
  rep.add("share.fault_other", total.other() / wall, "share", passes);
  rep.add("trace.overhead_share",
          median(traced_walls) / std::max(median(plain_walls), 1e-12) - 1.0,
          "share", passes);
  if (ctx.spans != nullptr) {
    obs::Json self = obs::Json::object();
    for (const auto& [name, ms] : ctx.spans->self_ms())
      self[name] = ms / static_cast<double>(passes);
    rep.context["span_self_ms_per_pass"] = std::move(self);
  }
}

void load_layers(RunContext& ctx, const std::vector<Circuit>& circuits) {
  constexpr int kRepeats = 3;
  std::vector<double> parse, miter;
  for (int r = 0; r < kRepeats; ++r) {
    double p = 0.0, m = 0.0;
    for (const Circuit& c : circuits) {
      const double t0 = now_s();
      const net::Network parsed = net::read_bench_string(c.text, c.name);
      const double t1 = now_s();
      const fault::SharedMiterCnf shared(parsed);
      m += now_s() - t1;
      p += t1 - t0;
    }
    parse.push_back(p * 1e3);
    miter.push_back(m * 1e3);
  }
  ctx.report.add("netlist.parse_ms", median(parse), "ms", parse.size());
  ctx.report.add("incremental.miter_build_ms", median(miter), "ms",
                 miter.size());
}

void profile(RunContext& ctx, const std::vector<EngineJob>& jobs) {
  double faults = 0, random = 0, sim = 0, sat = 0, untestable = 0;
  for (const EngineJob& job : jobs) {
    const ClassCounts c = count_classes(job.reference);
    faults += job.weight * static_cast<double>(c.faults);
    random += job.weight * static_cast<double>(c.dropped_random);
    sim += job.weight * static_cast<double>(c.dropped_sim);
    sat += job.weight * static_cast<double>(c.sat_detected);
    untestable += job.weight * static_cast<double>(c.untestable);
  }
  faults = std::max(faults, 1.0);
  Report& rep = ctx.report;
  for (const auto& [name, count] :
       {std::pair{"profile.dropped_random_share", random},
        {"profile.dropped_sim_share", sim},
        {"profile.sat_detected_share", sat},
        {"profile.untestable_share", untestable}})
    rep.add(name, count / faults, "share", jobs.size());
  if (ctx.spans == nullptr) return;
  obs::Json circuits = obs::Json::array();
  std::vector<const Circuit*> seen;
  double max_width = 0.0;
  for (const EngineJob& job : jobs) {
    if (std::find(seen.begin(), seen.end(), job.circuit) != seen.end())
      continue;
    seen.push_back(job.circuit);
    const Circuit& c = *job.circuit;
    const core::MlaResult mla = core::mla(c.net);
    max_width = std::max(max_width, static_cast<double>(mla.width));
    obs::Json j = obs::Json::object();
    j["circuit"] = c.name;
    j["gates"] = static_cast<std::uint64_t>(c.net.gate_count());
    j["faults"] = static_cast<std::uint64_t>(c.faults.size());
    j["cut_width"] = static_cast<std::uint64_t>(mla.width);
    j["classes"] = to_json(count_classes(job.reference));
    circuits.push_back(std::move(j));
  }
  rep.context["circuits"] = std::move(circuits);
  rep.add("profile.max_cut_width", max_width, "count", seen.size());
}

// ---- drop-heavy / redundant ------------------------------------------------

namespace {

struct Member {
  const char* name;
  /// Instances per run. Suite members whose structure the seed changes
  /// (the Hutton and random-tree circuits) run as several instances from
  /// derived seeds, so one unlucky instance moves a run's figures less.
  int instances;
};

std::vector<Member> direct_members(const std::string& workload) {
  if (workload == "drop-heavy")
    return {{"tree256", 1}, {"rtree200", 5}, {"tree768", 1}};
  return {{"rand4", 1}, {"rand5", 1}, {"rand10", 1},
          {"s2670b", 1}, {"s5315", 1}, {"s432", 1}};
}

/// The redundant workload's circuits are generated from the default seed
/// whatever the run's seed, which then drives only the per-job ATPG seeds:
/// a redundancy-heavy random circuit's ATPG time changes by up to 2x with
/// its structure, and even with two or three instances per member the
/// runs' latency quantiles spread by 25-35% across seeds.
constexpr std::uint64_t kRedundantSuiteSeed = 1;

/// The workload's circuits; instance k > 0 of a member is generated from a
/// derived seed and named "<member>#k".
std::vector<Circuit> direct_circuits(const std::string& workload,
                                     std::uint64_t seed) {
  if (workload == "redundant") seed = kRedundantSuiteSeed;
  std::vector<Circuit> out;
  for (int k = 0;; ++k) {
    std::vector<std::string> names;
    for (const Member& m : direct_members(workload))
      if (k < m.instances) names.push_back(m.name);
    if (names.empty()) return out;
    for (Circuit& c : make_circuits(
             names, k == 0 ? seed : derive_seed(seed, 0x1257a + k))) {
      if (k > 0) {
        c.name += '#';
        c.name += std::to_string(k);
      }
      out.push_back(std::move(c));
    }
  }
}

}  // namespace

void run_direct(RunContext& ctx) {
  const Args& args = ctx.args;
  std::vector<Circuit> circuits = direct_circuits(args.workload, args.seed);
  std::vector<EngineJob> jobs(circuits.size());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    jobs[i].circuit = &circuits[i];
    jobs[i].options.seed = derive_seed(args.seed, 100 + i);
  }
  // Getting ready for direct run_atpg calls: read each circuit's bench
  // text into the network the jobs run on, with its collapsed fault list.
  timed_setup(
      ctx,
      [&] {
        for (Circuit& c : circuits) {
          c.net = net::read_bench_string(c.text, c.name);
          c.faults = fault::collapsed_fault_list(c.net);
        }
      },
      [] {});

  // The direct run is itself the program's output here, so the traced run
  // and --emit-expected take their references from an untimed direct pass,
  // and the measured loop from its own first pass.
  if (ctx.spans != nullptr || args.emit_expected) {
    for (EngineJob& job : jobs) compute_reference(job, ctx.gate);
    if (expected_gate(ctx, jobs)) return;
    profile(ctx, jobs);
    load_layers(ctx, circuits);
    engine_layers(ctx, jobs, args.seconds);
    return;
  }

  // The measured loop: every pass parses each circuit's bench text (a
  // load) and runs ATPG on the parsed network (a job).
  RepeatedJobs runs(jobs);
  bool flip = args.inject_mismatch;
  const double deadline = now_s() + args.seconds;
  // At least two passes, so every run compares a repeat with its first.
  for (int pass = 0; pass < 2 || now_s() < deadline; ++pass) {
    const bool first = pass == 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EngineJob& job = jobs[j];
      const double t0 = now_s();
      const net::Network parsed =
          net::read_bench_string(job.circuit->text, job.circuit->name);
      const double t1 = now_s();
      fault::AtpgResult r = fault::run_atpg(parsed, job.options);
      const double t2 = now_s();
      runs.load_ms[j].push_back((t1 - t0) * 1e3);
      runs.job_ms[j].push_back((t2 - t1) * 1e3);
      if (first) {
        job.digest = classification_digest(r);
        job.reference = std::move(r);
        check_reference(*job.circuit, job.reference, ctx.gate);
        continue;
      }
      if (flip) flip_status(r.outcomes.front().status);
      flip = false;
      ctx.gate.attempt();
      if (classification_digest(r) != job.digest)
        ctx.gate.fail(job.circuit->name + ": result differs from pass 1");
    }
  }
  expected_gate(ctx, jobs);
  runs.report(ctx.report);
}

}  // namespace perfbench
