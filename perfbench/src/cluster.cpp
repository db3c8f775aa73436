// cluster-2w: an in-process svc::Cluster coordinator over two spawned
// cwatpg_serve workers on pipes (the default cwatpg_cluster topology),
// running one per-fault job at a time on each member circuit. Each
// worker endpoint is wrapped in a recording Transport, which times shard
// dispatch and reply from outside the cluster layer.
#include <map>
#include <memory>
#include <thread>

#include "obs/report.hpp"
#include "svc/cluster.hpp"
#include "svc/proto.hpp"
#include "svc/spawn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// s5315, s7552 and s2670b span the cluster's behaviour (s7552 inflates
// work across shards, s2670b gains from them). s1908 and s1355 add short,
// random-testable jobs, and keep the median job off s2670b, the one member
// whose structure, and so its latency, changes with the seed.
const std::vector<std::string> kMembers = {"s5315", "s7552", "s2670b",
                                           "s1908", "s1355"};
constexpr int kWorkers = 2;

struct Shard {
  int worker = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t sat_instances = 0;
};

/// What the recording transports saw, shared by all worker endpoints.
class Probe {
 public:
  void sent(int worker, const obs::Json& frame) {
    const obs::Json* kind = frame.find("kind");
    if (kind == nullptr || kind->as_string() != "run_atpg") return;
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_[{worker, frame.at("id").as_u64()}] = now_s();
  }

  void received(int worker, const obs::Json& frame) {
    const obs::Json* id = frame.find("id");
    if (id == nullptr) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = inflight_.find({worker, id->as_u64()});
    if (it == inflight_.end()) return;
    Shard s{worker, it->second, t, 0};
    if (const obs::Json* r = frame.find("result"))
      s.sat_instances =
          r->at("run_report").at("sat_instances").at("count").as_u64();
    inflight_.erase(it);
    shards_.push_back(s);
    last_reply_ = t;
  }

  std::vector<Shard> shards() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_;
  }
  double last_reply() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_reply_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<int, std::uint64_t>, double> inflight_;
  std::vector<Shard> shards_;
  double last_reply_ = 0.0;
};

/// Transport decorator on a worker endpoint: forwards every call and
/// reports run_atpg dispatches and their replies to the probe.
class RecordingTransport final : public svc::Transport {
 public:
  RecordingTransport(std::unique_ptr<svc::Transport> inner,
                     std::shared_ptr<Probe> probe, int worker)
      : inner_(std::move(inner)), probe_(std::move(probe)), worker_(worker) {}
  bool read(obs::Json& frame) override {
    const bool ok = inner_->read(frame);
    if (ok) probe_->received(worker_, frame);
    return ok;
  }
  void write(const obs::Json& frame) override {
    probe_->sent(worker_, frame);
    inner_->write(frame);
  }
  void close() override { inner_->close(); }
  bool set_read_timeout(double seconds) override {
    return inner_->set_read_timeout(seconds);
  }

 private:
  std::unique_ptr<svc::Transport> inner_;
  std::shared_ptr<Probe> probe_;
  int worker_;
};

/// The run's inputs and the checker's references (prepared once, untimed)
/// and the live cluster that each timed set-up starts.
struct State {
  std::vector<Circuit> circuits;
  std::vector<EngineJob> jobs;
  std::vector<std::string> wire;

  std::vector<std::string> keys;
  std::shared_ptr<Probe> probe;
  std::unique_ptr<svc::Cluster> cluster;
  svc::DuplexPair front;
  std::thread loop;
  std::uint64_t next_id = 0;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() { stop(); }

  obs::Json call(const char* kind, obs::Json params) {
    const std::uint64_t id = ++next_id;
    front.client->write(request(id, kind, std::move(params)));
    obs::Json resp;
    if (!front.client->read(resp))
      throw std::runtime_error(std::string(kind) + ": coordinator closed");
    return resp;
  }

  /// Shuts the coordinator (and with it its workers) down and discards it.
  void stop() {
    if (!loop.joinable()) return;
    try {
      call("shutdown", obs::Json::object());
    } catch (const std::exception&) {
    }
    front.client->close();
    loop.join();
    cluster.reset();
    front = svc::DuplexPair{};
    keys.clear();
  }
};

/// Inputs and direct references.
void prepare(State& s, RunContext& ctx) {
  if (ctx.args.serve_bin.empty())
    throw std::invalid_argument("cluster-2w needs --serve-bin");
  s.circuits = make_circuits(kMembers, ctx.args.seed);
  for (std::size_t i = 0; i < s.circuits.size(); ++i) {
    EngineJob job;
    job.circuit = &s.circuits[i];
    job.options.seed = derive_seed(ctx.args.seed, 500 + i);
    compute_reference(job, ctx.gate);
    s.wire.push_back(expected_wire(job.reference));
    s.jobs.push_back(std::move(job));
  }
}

/// The timed set-up: spawn and attach the workers, start the coordinator
/// and load the workload circuits.
void start(State& s, RunContext& ctx) {
  s.probe = std::make_shared<Probe>();
  std::vector<svc::Cluster::WorkerEndpoint> endpoints;
  for (int w = 0; w < kWorkers; ++w) {
    svc::ChildProcess child =
        svc::spawn_child({ctx.args.serve_bin, "--threads=2"});
    svc::Cluster::WorkerEndpoint e;
    e.transport = std::make_unique<RecordingTransport>(
        std::move(child.transport), s.probe, w);
    e.name = w == 0 ? "w0" : "w1";
    e.pid = child.pid;
    endpoints.push_back(std::move(e));
  }
  s.cluster = std::make_unique<svc::Cluster>(std::move(endpoints));
  s.front = svc::make_byte_duplex();
  s.loop = std::thread([&s, &gate = ctx.gate] {
    try {
      s.cluster->serve(*s.front.server);
    } catch (const std::exception& e) {
      gate.fail(std::string("coordinator: ") + e.what());
    }
  });
  for (const Circuit& c : s.circuits) {
    obs::Json params = obs::Json::object();
    params["name"] = c.name;
    params["text"] = c.text;
    const obs::Json resp = s.call("load_circuit", std::move(params));
    if (!resp.at("ok").as_bool())
      throw std::runtime_error("set-up load of " + c.name + " failed");
    s.keys.push_back(resp.at("result").at("circuit").at("key").as_string());
  }
}

}  // namespace

void run_cluster(RunContext& ctx) {
  auto state = std::make_unique<State>();
  prepare(*state, ctx);
  timed_setup(
      ctx, [&] { start(*state, ctx); }, [&] { state->stop(); });
  State& s = *state;
  if (expected_gate(ctx, s.jobs)) return;
  profile(ctx, s.jobs);

  // Closed loop, one job at a time: each pass re-sends every circuit's
  // load_circuit (a registry hit) and then its run_atpg job.
  const bool traced = ctx.spans != nullptr;
  RepeatedJobs runs(s.jobs);
  std::vector<double> merge_ms;
  std::size_t jobs_run = 0;
  std::uint64_t redispatched = 0, direct_instances = 0;
  std::vector<std::uint64_t> instances_of;  // direct SAT instances per job
  for (const EngineJob& job : s.jobs)
    instances_of.push_back(
        obs::build_run_report(job.circuit->net, job.reference).sat_instances);
  bool flip = ctx.args.inject_mismatch;
  const double t_start = now_s();
  const double deadline = t_start + (traced ? ctx.args.seconds / 2
                                            : ctx.args.seconds);
  do {
    for (std::size_t i = 0; i < s.jobs.size(); ++i) {
      const Circuit& c = s.circuits[i];
      obs::Json load = obs::Json::object();
      load["name"] = c.name;
      load["text"] = c.text;
      ctx.gate.attempt();
      double t0 = now_s();
      obs::Json resp = s.call("load_circuit", std::move(load));
      runs.load_ms[i].push_back((now_s() - t0) * 1e3);
      if (!resp.at("ok").as_bool() ||
          resp.at("result").at("circuit").at("key").as_string() != s.keys[i])
        ctx.gate.fail(c.name + ": cluster load_circuit failed");

      obs::Json params = obs::Json::object();
      params["circuit"] = s.keys[i];
      params["seed"] = s.jobs[i].options.seed;
      params["raw_outcomes"] = true;
      ctx.gate.attempt();
      t0 = now_s();
      resp = s.call("run_atpg", std::move(params));
      const double t1 = now_s();
      runs.job_ms[i].push_back((t1 - t0) * 1e3);
      ++jobs_run;
      if (!resp.at("ok").as_bool()) {
        std::string why = c.name;
        why += ": cluster run_atpg failed: ";
        why += resp.dump().substr(0, 200);
        ctx.gate.fail(why);
        continue;
      }
      const obs::Json& result = resp.at("result");
      if (result.at("num_aborted").as_u64() != 0 ||
          result.at("num_undetermined").as_u64() != 0 ||
          received_wire(result, c.net.inputs().size(), flip) != s.wire[i]) {
        ctx.gate.fail(c.name + ": cluster run_atpg differs from direct");
      }
      flip = false;
      redispatched += result.at("cluster").at("redispatched").as_u64();
      merge_ms.push_back((t1 - s.probe->last_reply()) * 1e3);
      direct_instances += instances_of[i];
    }
  } while (now_s() < deadline);
  const double window = now_s() - t_start;

  Report& rep = ctx.report;
  if (!traced) {
    runs.report(rep);
    return;
  }

  const std::vector<Shard> shards = s.probe->shards();
  std::vector<double> shard_ms;
  double busy = 0.0, instances = 0.0;
  for (const Shard& sh : shards) {
    shard_ms.push_back((sh.end - sh.start) * 1e3);
    busy += sh.end - sh.start;
    instances += static_cast<double>(sh.sat_instances);
  }
  // Set-up load_circuit calls dispatch no shards, so every recorded shard
  // belongs to a measured job.
  rep.add("cluster.shards",
          static_cast<double>(shards.size()) /
              static_cast<double>(std::max<std::size_t>(jobs_run, 1)),
          "count", jobs_run);
  rep.add("cluster.redispatched", static_cast<double>(redispatched), "count",
          jobs_run);
  rep.add("cluster.shard_p50_ms", median(shard_ms), "ms", shard_ms.size());
  rep.add("cluster.worker_busy_share", busy / (kWorkers * window), "share",
          shards.size());
  rep.add("cluster.solve_inflation",
          instances / std::max(static_cast<double>(direct_instances), 1.0),
          "ratio", jobs_run);
  rep.add("cluster.merge_ms", median(merge_ms), "ms", merge_ms.size());

  const obs::Json status = s.call("status", obs::Json::object());
  const obs::Json& registry = status.at("result").at("registry");
  for (const char* field : {"hits", "misses", "evictions"})
    rep.add(std::string("svc.registry.") + field,
            static_cast<double>(registry.at(field).as_u64()), "count", 1);

  // The same jobs run directly, serially, in this process.
  std::vector<double> direct_rate;
  for (int r = 0; r < 3; ++r) {
    double f = 0.0;
    const double t0 = now_s();
    for (const EngineJob& job : s.jobs)
      f += static_cast<double>(
          fault::run_atpg(job.circuit->net, job.options).outcomes.size());
    direct_rate.push_back(f / (now_s() - t0));
  }
  rep.add("cluster.direct_faults_per_s", median(direct_rate), "faults/s",
          direct_rate.size());

  load_layers(ctx, s.circuits);
  engine_layers(ctx, s.jobs, ctx.args.seconds / 2);
}

}  // namespace perfbench
