#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fault/fsim.hpp"
#include "gen/suites.hpp"
#include "netlist/bench_io.hpp"
#include "svc/proto.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

// ---- spans ----------------------------------------------------------------

SpanLog::SpanLog() : epoch_(now_s()) {}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t job) {
  const double t = (now_s() - epoch_) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, t, t, parent, job});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  const double t = (now_s() - epoch_) * 1e6;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = t;
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i] / 1e3;
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  for (const Span& s : spans_) {
    obs::Json j = obs::Json::object();
    j["name"] = s.name;
    j["start"] = s.start;
    j["end"] = s.end;
    j["parent"] = s.parent;
    j["job"] = s.job;
    out << j.dump() << "\n";
  }
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

// ---- gate -----------------------------------------------------------------

void Gate::fail(const std::string& why) {
  ++failed_;
  std::lock_guard<std::mutex> lock(mutex_);
  if (messages_.size() < 8) messages_.push_back(why);
}

std::vector<std::string> Gate::messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

// ---- circuits -------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

namespace {

/// Bench text of `source` and its parsed-back Circuit.
Circuit circuit_from(const net::Network& source) {
  std::ostringstream text;
  net::write_bench(text, source);
  Circuit c{source.name(), text.str(),
            net::read_bench_string(text.str(), source.name()), {}};
  c.faults = fault::collapsed_fault_list(c.net);
  return c;
}

}  // namespace

std::vector<Circuit> make_circuits(const std::vector<std::string>& names,
                                   std::uint64_t seed) {
  gen::SuiteOptions options;
  options.scale = 1.0;
  options.seed = derive_seed(seed, 0x5017e) % 1000003;
  std::vector<net::Network> pool = gen::iscas85_like_suite(options);
  for (net::Network& n : gen::mcnc_like_suite(options))
    pool.push_back(std::move(n));
  std::vector<Circuit> out;
  for (const std::string& name : names) {
    const auto it =
        std::find_if(pool.begin(), pool.end(),
                     [&](const net::Network& n) { return n.name() == name; });
    if (it == pool.end())
      throw std::invalid_argument("unknown suite member " + name);
    out.push_back(circuit_from(*it));
  }
  return out;
}

std::string classification_digest(const fault::AtpgResult& result) {
  std::string out;
  out.reserve(result.outcomes.size() * 48);
  for (const fault::FaultOutcome& o : result.outcomes) {
    const sat::SolverStats& s = o.solver_stats;
    out += fault::to_string(o.status);
    out += ',';
    out += fault::to_string(o.engine);
    for (const std::uint64_t v :
         {std::uint64_t(o.attempts), std::uint64_t(o.test_index),
          std::uint64_t(o.sat_vars), std::uint64_t(o.sat_clauses),
          s.decisions, s.propagations, s.conflicts}) {
      out += ',';
      out += std::to_string(v);
    }
    out += '\n';
  }
  for (const fault::Pattern& p : result.tests) {
    out += svc::encode_bits(p);
    out += '\n';
  }
  return out;
}

// ---- cwatpg.rpc/1 -----------------------------------------------------------

obs::Json request(std::uint64_t id, const char* kind, obs::Json params) {
  obs::Json j = obs::Json::object();
  j["schema"] = svc::kRpcSchema;
  j["id"] = id;
  j["kind"] = kind;
  j["params"] = std::move(params);
  return j;
}

namespace {

/// Canonical per-fault record as the wire carries it, minus wall-clock.
std::string canonical_record(std::size_t index, fault::FaultOutcome outcome,
                             const fault::Pattern* test) {
  outcome.solve_seconds = 0.0;
  return svc::encode_fault_outcome(index, outcome, test).dump();
}

}  // namespace

std::string expected_wire(const fault::AtpgResult& r) {
  std::string out;
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const fault::FaultOutcome& o = r.outcomes[i];
    const bool with_test = o.status == fault::FaultStatus::kDetected &&
                           o.has_test();
    out += canonical_record(i, o, with_test ? &r.tests[o.test()] : nullptr);
    out += '\n';
  }
  for (const fault::Pattern& t : r.tests) out += svc::encode_bits(t) + "\n";
  return out;
}

std::string received_wire(const obs::Json& result, std::size_t num_inputs,
                          bool flip) {
  std::string out;
  for (const obs::Json& rec : result.at("raw").items()) {
    svc::WireFaultOutcome w = svc::decode_fault_outcome(rec, num_inputs);
    if (flip) {
      flip_status(w.outcome.status);
      flip = false;
    }
    const bool with_test = w.outcome.status == fault::FaultStatus::kDetected;
    out += canonical_record(w.index, w.outcome, with_test ? &w.test : nullptr);
    out += '\n';
  }
  for (const obs::Json& t : result.at("tests").items())
    out += t.as_string() + "\n";
  return out;
}

ClassCounts count_classes(const fault::AtpgResult& result) {
  ClassCounts c;
  c.faults = result.outcomes.size();
  c.detected = result.num_detected;
  c.untestable = result.num_untestable;
  c.aborted = result.num_aborted;
  c.unreachable = result.num_unreachable;
  for (const fault::FaultOutcome& o : result.outcomes) {
    if (o.status == fault::FaultStatus::kDroppedRandom) ++c.dropped_random;
    if (o.status == fault::FaultStatus::kDroppedBySim) ++c.dropped_sim;
    if (o.status == fault::FaultStatus::kDetected) ++c.sat_detected;
  }
  return c;
}

obs::Json to_json(const ClassCounts& c) {
  obs::Json j = obs::Json::object();
  j["faults"] = c.faults;
  j["detected"] = c.detected;
  j["untestable"] = c.untestable;
  j["aborted"] = c.aborted;
  j["unreachable"] = c.unreachable;
  return j;
}

void check_reference(const Circuit& circuit, const fault::AtpgResult& result,
                     Gate& gate) {
  gate.attempt();
  if (result.num_aborted != 0 || result.num_undetermined != 0 ||
      result.interrupted) {
    gate.fail(circuit.name + ": " + std::to_string(result.num_aborted) +
              " aborted, " + std::to_string(result.num_undetermined) +
              " undetermined faults");
    return;
  }
  for (const fault::FaultOutcome& o : result.outcomes) {
    if (!o.has_test()) continue;
    if (o.test() >= result.tests.size() ||
        !fault::detects(circuit.net, o.fault, result.tests[o.test()])) {
      gate.fail(circuit.name + ": attributed test does not detect " +
                fault::to_string(circuit.net, o.fault));
      return;
    }
  }
}

bool check_expected(const std::string& path, const std::string& workload,
                    std::uint64_t seed,
                    const std::map<std::string, ClassCounts>& counts,
                    Gate& gate) {
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in) {
    gate.attempt();
    gate.fail("expected-counts file " + path + " is missing");
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  const obs::Json all = obs::Json::parse(text.str());
  const obs::Json* per_workload = all.find(workload);
  if (per_workload == nullptr) return false;
  const obs::Json* per_seed = per_workload->find(std::to_string(seed));
  if (per_seed == nullptr) return false;
  for (const auto& [name, got] : counts) {
    gate.attempt();
    const obs::Json* want = per_seed->find(name);
    if (want == nullptr) {
      gate.fail(name + ": no expected counts committed");
      continue;
    }
    const obs::Json have = to_json(got);
    for (const std::string& key : have.keys()) {
      const obs::Json* value = want->find(key);
      if (value == nullptr || value->as_u64() != have.at(key).as_u64()) {
        gate.fail(name + ": counts " + have.dump() + " != expected " +
                  want->dump());
        break;
      }
    }
  }
  return true;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
