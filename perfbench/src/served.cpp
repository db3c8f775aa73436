// served-easy: three closed-loop TCP clients against an in-process
// svc::Server (2 job workers) behind netio::NetServer. The traffic mixes
// load_circuit (10%: half new content, half repeats), per-fault run_atpg
// (60%), incremental run_atpg (10%) and fsim (20%) on random-testable
// circuits, in an order drawn from the workload seed. Every response is
// checked against a direct computation made before the run.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "net/net_server.hpp"
#include "net/socket.hpp"
#include "svc/proto.hpp"
#include "svc/registry.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kMembers = {"s499",  "s1355", "s1908",
                                           "add32", "add64", "par128",
                                           "ecc16", "ecc24"};
constexpr std::size_t kPerFaultSeeds = 2;  // per-fault job variants/circuit
constexpr std::size_t kPatternSets = 2;    // fsim job variants/circuit
constexpr std::size_t kFsimPatterns = 64;
/// The server's registry budget, as a multiple of the workload circuits'
/// own footprint: room for about as many new-content entries again, so the
/// LRU evicts them from the first seconds of traffic on and the server's
/// memory reaches a plateau whatever the run length.
constexpr std::size_t kRegistryHeadroom = 2;

enum class OpKind { kLoadRepeat, kLoadNew, kPerFault, kIncremental, kFsim };

struct Op {
  OpKind kind = OpKind::kPerFault;
  std::size_t circuit = 0;
  std::size_t variant = 0;
};

/// One deck of 80 operations: per circuit 6 per-fault, 1 incremental and
/// 2 fsim jobs; plus 4 new-content and 4 repeat loads, each of a member
/// circuit in turn. Decks repeat with a fresh seeded shuffle, so the mix
/// is exact over every deck.
std::vector<Op> make_deck(std::uint64_t seed, std::size_t deck) {
  std::vector<Op> ops;
  for (std::size_t c = 0; c < kMembers.size(); ++c) {
    for (std::size_t k = 0; k < 6; ++k)
      ops.push_back({OpKind::kPerFault, c, k % kPerFaultSeeds});
    ops.push_back({OpKind::kIncremental, c, 0});
    for (std::size_t k = 0; k < kPatternSets; ++k)
      ops.push_back({OpKind::kFsim, c, k});
  }
  for (std::size_t k = 0; k < 4; ++k) {
    ops.push_back({OpKind::kLoadNew, (deck * 4 + k) % kMembers.size(), 0});
    ops.push_back({OpKind::kLoadRepeat, (deck * 4 + k + 4) % kMembers.size(),
                   0});
  }
  Rng rng(derive_seed(seed, 7000 + deck));
  std::shuffle(ops.begin(), ops.end(), rng);
  return ops;
}

struct FsimJob {
  obs::Json patterns = obs::Json::array();
  std::uint64_t detected = 0;
};

/// New content made from a member circuit: its bench text with the INPUT
/// declarations in a seeded order. The circuit is the same, so a load does
/// the same work as loading the member, but the primary inputs get other
/// node ids and so the registry another content hash.
std::string permuted_inputs(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::vector<std::size_t> inputs;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("INPUT(", 0) == 0) inputs.push_back(lines.size());
    lines.push_back(std::move(line));
  }
  std::vector<std::string> order;
  for (const std::size_t i : inputs) order.push_back(lines[i]);
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t k = 0; k < inputs.size(); ++k) lines[inputs[k]] = order[k];
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// The run's inputs and the checker's references (prepared once, untimed)
/// and the live server that each timed set-up starts.
struct State {
  std::vector<Circuit> circuits;
  std::vector<EngineJob> per_fault;    ///< [c * kPerFaultSeeds + k]
  std::vector<EngineJob> incremental;  ///< [c]
  std::vector<std::string> per_fault_wire, incremental_wire;
  std::vector<FsimJob> fsim;           ///< [c * kPatternSets + k]
  std::size_t registry_bytes = 0;      ///< the server's registry budget

  std::vector<std::string> keys;       ///< registry key per circuit
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<netio::NetServer> front;
  std::thread loop;
  std::uint16_t port = 0;

  State() = default;
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  ~State() { stop(); }

  /// Shuts the live server down and discards it.
  void stop() {
    if (!loop.joinable()) return;
    try {
      netio::SocketTransport t(netio::tcp_connect("127.0.0.1", port, 10.0));
      t.write(request(1, "shutdown", obs::Json::object()));
      obs::Json resp;
      while (t.read(resp)) {
      }
    } catch (const std::exception&) {
      front->stop();
    }
    loop.join();
    front.reset();
    server.reset();
    keys.clear();
  }
};

/// Inputs, direct references and fsim expectations; the registry budget.
void prepare(State& s, RunContext& ctx) {
  const std::uint64_t seed = ctx.args.seed;
  s.circuits = make_circuits(kMembers, seed);
  svc::CircuitRegistry sizing(std::numeric_limits<std::size_t>::max());
  for (std::size_t c = 0; c < s.circuits.size(); ++c) {
    sizing.load_bench(s.circuits[c].text, s.circuits[c].name);
    for (std::size_t k = 0; k < kPerFaultSeeds; ++k) {
      EngineJob job;
      job.circuit = &s.circuits[c];
      job.options.seed = derive_seed(seed, 200 + c * kPerFaultSeeds + k);
      job.weight = 6 / kPerFaultSeeds;  // 6 per-fault jobs per deck
      compute_reference(job, ctx.gate);
      s.per_fault_wire.push_back(expected_wire(job.reference));
      s.per_fault.push_back(std::move(job));
    }
    EngineJob inc;
    inc.circuit = &s.circuits[c];
    inc.options.seed = derive_seed(seed, 300 + c);
    inc.options.engine = fault::AtpgEngine::kIncremental;
    compute_reference(inc, ctx.gate);
    s.incremental_wire.push_back(expected_wire(inc.reference));
    s.incremental.push_back(std::move(inc));
    for (std::size_t k = 0; k < kPatternSets; ++k) {
      Rng rng(derive_seed(seed, 400 + c * kPatternSets + k));
      std::vector<fault::Pattern> patterns;
      FsimJob f;
      for (std::size_t p = 0; p < kFsimPatterns; ++p) {
        fault::Pattern bits(s.circuits[c].net.inputs().size());
        for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.chance(0.5);
        f.patterns.push_back(svc::encode_bits(bits));
        patterns.push_back(std::move(bits));
      }
      const std::vector<bool> hit = fault::fault_simulate(
          s.circuits[c].net, s.circuits[c].faults, patterns);
      f.detected = static_cast<std::uint64_t>(
          std::count(hit.begin(), hit.end(), true));
      s.fsim.push_back(std::move(f));
    }
  }
  s.registry_bytes = kRegistryHeadroom * sizing.stats().bytes;
}

/// The timed set-up: start the server and load the workload circuits.
void start(State& s, RunContext& ctx) {
  svc::ServerOptions options;
  options.threads = 2;
  options.registry_bytes = s.registry_bytes;
  s.server = std::make_unique<svc::Server>(options);
  s.front = std::make_unique<netio::NetServer>(*s.server);
  s.port = s.front->port();
  s.loop = std::thread([&s, &gate = ctx.gate] {
    try {
      s.front->run();
    } catch (const std::exception& e) {
      gate.fail(std::string("server loop: ") + e.what());
    }
  });

  netio::SocketTransport t(netio::tcp_connect("127.0.0.1", s.port, 10.0));
  for (std::size_t c = 0; c < s.circuits.size(); ++c) {
    obs::Json params = obs::Json::object();
    params["name"] = s.circuits[c].name;
    params["text"] = s.circuits[c].text;
    t.write(request(c + 1, "load_circuit", std::move(params)));
    obs::Json resp;
    if (!t.read(resp) || !resp.at("ok").as_bool())
      throw std::runtime_error("set-up load of " + s.circuits[c].name +
                               " failed");
    s.keys.push_back(resp.at("result").at("circuit").at("key").as_string());
  }
}

/// What one client measured.
struct ClientLog {
  std::vector<double> job_ms, job_end, job_faults;  ///< per job response
  std::vector<double> load_new_ms, load_hit_ms;     ///< per load response
  std::vector<double> overhead_ms;
  std::vector<double> frame_bytes, parse_ms, dump_ms;
};

/// The served job metrics over one-second windows of the traffic, so a
/// burst of interference from other tenants of a shared machine spoils a
/// few windows rather than the run: faults_per_s is the upper quartile of
/// the windows' throughput, and each job latency quantile the lower
/// quartile of the windows' values. Loads are too few per window, so
/// load_p50_ms pools the run's new-content loads: the registry misses,
/// which parse the text and build the entry. Repeat loads, which only
/// parse and hash it, are reported apart, in the context line.
void report_windows(const ClientLog& all, double t0, double t1,
                    Report& report) {
  const std::size_t n = static_cast<std::size_t>(t1 - t0);  // full windows
  std::vector<std::vector<double>> jobs(n);
  std::vector<double> faults(n, 0.0);
  for (std::size_t i = 0; i < all.job_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, all.job_end[i] - t0));
    if (w >= n) continue;
    jobs[w].push_back(all.job_ms[i]);
    faults[w] += all.job_faults[i];
  }
  std::vector<double> p50, p90;
  for (std::size_t w = 0; w < n; ++w) {
    p50.push_back(quantile(jobs[w], 0.5));
    p90.push_back(quantile(jobs[w], 0.9));
  }
  report.add("faults_per_s", quantile(faults, 0.75), "faults/s",
             all.job_ms.size());
  report.add("job_p50_ms", quantile(p50, 0.25), "ms", all.job_ms.size());
  report.add("job_p90_ms", quantile(p90, 0.25), "ms", all.job_ms.size());
  report.add("load_p50_ms", quantile(all.load_new_ms, 0.5), "ms",
             all.load_new_ms.size());
  report.context["load_hit_p50_ms"] = quantile(all.load_hit_ms, 0.5);
  report.context["load_hits"] =
      static_cast<std::uint64_t>(all.load_hit_ms.size());
}

struct Traffic {
  Traffic(const State& s, RunContext& c, double end)
      : state(s), ctx(c), deadline(end) {}

  const State& state;
  RunContext& ctx;
  const double deadline;
  std::atomic<std::size_t> next_op{0};
  std::atomic<bool> injected{false};
  std::mutex deck_mutex;
  std::map<std::size_t, std::vector<Op>> decks;

  Op op(std::size_t index) {
    std::lock_guard<std::mutex> lock(deck_mutex);
    const std::size_t deck = index / 80;
    auto it = decks.find(deck);
    if (it == decks.end())
      it = decks.emplace(deck, make_deck(ctx.args.seed, deck)).first;
    return it->second[index % 80];
  }

  void check_job(const Op& op, const obs::Json& result, ClientLog& log) {
    const Circuit& c = state.circuits[op.circuit];
    if (op.kind == OpKind::kFsim) {
      const FsimJob& f = state.fsim[op.circuit * kPatternSets + op.variant];
      if (result.at("detected").as_u64() != f.detected)
        ctx.gate.fail(c.name + ": served fsim detected count differs");
      return;
    }
    const bool inc = op.kind == OpKind::kIncremental;
    const std::size_t j =
        inc ? op.circuit : op.circuit * kPerFaultSeeds + op.variant;
    const EngineJob& job = inc ? state.incremental[j] : state.per_fault[j];
    const std::string& want =
        inc ? state.incremental_wire[j] : state.per_fault_wire[j];
    const bool flip = ctx.args.inject_mismatch && !injected.exchange(true);
    const fault::AtpgResult& ref = job.reference;
    if (result.at("num_detected").as_u64() != ref.num_detected ||
        result.at("num_untestable").as_u64() != ref.num_untestable ||
        result.at("num_aborted").as_u64() != 0 ||
        result.at("num_undetermined").as_u64() != 0 ||
        received_wire(result, c.net.inputs().size(), flip) != want) {
      ctx.gate.fail(c.name + ": served run_atpg differs from direct");
      return;
    }
    log.job_faults.back() = static_cast<double>(ref.outcomes.size());
  }

  void client(ClientLog& log) {
    netio::SocketTransport t(
        netio::tcp_connect("127.0.0.1", state.port, 10.0));
    t.set_read_timeout(120.0);
    std::uint64_t id = 0;
    while (now_s() < deadline) {
      const std::size_t index = next_op++;
      const Op o = op(index);
      obs::Json params = obs::Json::object();
      const char* kind = "run_atpg";
      const bool load = o.kind == OpKind::kLoadNew ||
                        o.kind == OpKind::kLoadRepeat;
      if (load) {
        kind = "load_circuit";
        const std::string& text = state.circuits[o.circuit].text;
        params["text"] =
            o.kind == OpKind::kLoadNew
                ? permuted_inputs(text, derive_seed(ctx.args.seed,
                                                    90000 + index))
                : text;
      } else {
        params["circuit"] = state.keys[o.circuit];
        if (o.kind == OpKind::kFsim) {
          kind = "fsim";
          params["patterns"] =
              state.fsim[o.circuit * kPatternSets + o.variant].patterns;
        } else {
          const bool inc = o.kind == OpKind::kIncremental;
          const EngineJob& job =
              inc ? state.incremental[o.circuit]
                  : state.per_fault[o.circuit * kPerFaultSeeds + o.variant];
          params["seed"] = job.options.seed;
          params["raw_outcomes"] = true;
          if (inc) params["engine"] = "incremental";
        }
      }
      ctx.gate.attempt();
      obs::Json resp;
      const double t0 = now_s();
      t.write(request(++id, kind, std::move(params)));
      const bool got = t.read(resp);
      const double ms = (now_s() - t0) * 1e3;
      if (!got) {
        ctx.gate.fail(std::string(kind) + ": connection closed, response lost");
        return;
      }
      if (!resp.at("ok").as_bool() || resp.at("id").as_u64() != id) {
        std::string why = kind;
        why += " failed: ";
        why += resp.dump().substr(0, 200);
        ctx.gate.fail(why);
        continue;
      }
      if (ctx.spans != nullptr) {
        // obs layer: re-time the codec on the frame as received.
        const double d0 = now_s();
        const std::string text = resp.dump();
        const double d1 = now_s();
        obs::Json::parse(text);
        log.dump_ms.push_back((d1 - d0) * 1e3);
        log.parse_ms.push_back((now_s() - d1) * 1e3);
        log.frame_bytes.push_back(static_cast<double>(text.size()));
      }
      const obs::Json& result = resp.at("result");
      if (load) {
        const bool again = result.at("already_loaded").as_bool();
        const std::string& key = result.at("circuit").at("key").as_string();
        if ((o.kind == OpKind::kLoadRepeat) != again ||
            (again && key != state.keys[o.circuit]))
          ctx.gate.fail("load_circuit: unexpected registry outcome");
        (again ? log.load_hit_ms : log.load_new_ms).push_back(ms);
        continue;
      }
      log.job_ms.push_back(ms);
      log.job_end.push_back(t0 + ms / 1e3);
      log.job_faults.push_back(0.0);
      check_job(o, result, log);
      if (o.kind != OpKind::kFsim)
        log.overhead_ms.push_back(
            ms - result.at("wall_seconds").as_double() * 1e3);
    }
  }
};

std::uint64_t counter(const obs::Json& status, const char* name) {
  const obs::Json* c = status.at("metrics").at("counters").find(name);
  return c != nullptr ? c->as_u64() : 0;
}

}  // namespace

void run_served(RunContext& ctx) {
  auto state = std::make_unique<State>();
  prepare(*state, ctx);
  timed_setup(
      ctx, [&] { start(*state, ctx); }, [&] { state->stop(); });
  std::vector<EngineJob> jobs;
  for (const EngineJob& j : state->per_fault) jobs.push_back(j);
  for (const EngineJob& j : state->incremental) jobs.push_back(j);
  if (expected_gate(ctx, state->per_fault)) return;
  profile(ctx, jobs);

  const bool traced = ctx.spans != nullptr;
  const double traffic_s = traced ? ctx.args.seconds / 2 : ctx.args.seconds;
  std::vector<ClientLog> logs(3);
  const double t0 = now_s();
  Traffic traffic(*state, ctx, t0 + traffic_s);
  {
    std::vector<std::thread> clients;
    for (ClientLog& log : logs)
      clients.emplace_back([&traffic, &log, &ctx] {
        try {
          traffic.client(log);
        } catch (const std::exception& e) {
          ctx.gate.fail(std::string("client: ") + e.what());
        }
      });
    for (std::thread& c : clients) c.join();
  }
  ClientLog all;
  for (const ClientLog& l : logs) {
    for (auto [dst, src] :
         {std::pair{&all.job_ms, &l.job_ms}, {&all.job_end, &l.job_end},
          {&all.job_faults, &l.job_faults},
          {&all.load_new_ms, &l.load_new_ms},
          {&all.load_hit_ms, &l.load_hit_ms},
          {&all.overhead_ms, &l.overhead_ms},
          {&all.frame_bytes, &l.frame_bytes}, {&all.parse_ms, &l.parse_ms},
          {&all.dump_ms, &l.dump_ms}})
      dst->insert(dst->end(), src->begin(), src->end());
  }

  netio::SocketTransport t(netio::tcp_connect("127.0.0.1", state->port, 10.0));
  t.write(request(1, "status", obs::Json::object()));
  obs::Json resp;
  if (!t.read(resp) || !resp.at("ok").as_bool())
    throw std::runtime_error("status request failed");
  const obs::Json& status = resp.at("result");
  const obs::Json& registry = status.at("registry");

  Report& rep = ctx.report;
  if (!traced) {
    report_windows(all, t0, t0 + traffic_s, rep);
    rep.context["ops"] = static_cast<std::uint64_t>(traffic.next_op.load());
    // peak_rss_mb is comparable across run lengths only once the registry
    // evicts, i.e. holds its budget's worth of new content.
    rep.context["registry"] = registry;
    if (registry.at("evictions").as_u64() == 0)
      std::cerr << "cwatpg_perfbench: warning: the registry never evicted; "
                   "peak_rss_mb has not reached its plateau\n";
    return;
  }

  const auto count = [&rep](const char* name, std::uint64_t value,
                            const char* unit = "count") {
    rep.add(name, static_cast<double>(value), unit, 1);
  };
  rep.add("svc.overhead_ms", median(all.overhead_ms), "ms",
          all.overhead_ms.size());
  count("svc.queue.max_depth", status.at("queue").at("max_depth").as_u64());
  count("svc.registry.hits", registry.at("hits").as_u64());
  count("svc.registry.misses", registry.at("misses").as_u64());
  count("svc.registry.load_misses", all.load_new_ms.size());
  count("svc.registry.evictions", registry.at("evictions").as_u64());
  count("svc.jobs.rejected", counter(status, "svc.jobs.rejected"));
  count("net.bytes_in", counter(status, "net.bytes.in"), "bytes");
  count("net.bytes_out", counter(status, "net.bytes.out"), "bytes");
  rep.add("obs.frame_bytes", median(all.frame_bytes), "bytes",
          all.frame_bytes.size());
  rep.add("obs.parse_ms", median(all.parse_ms), "ms", all.parse_ms.size());
  rep.add("obs.dump_ms", median(all.dump_ms), "ms", all.dump_ms.size());

  load_layers(ctx, state->circuits);
  engine_layers(ctx, jobs, ctx.args.seconds / 2);
}

}  // namespace perfbench
