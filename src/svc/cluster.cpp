#include "svc/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "fault/fsim.hpp"
#include "fault/tegus.hpp"
#include "obs/report.hpp"
#include "svc/params.hpp"
#include "svc/spawn.hpp"
#include "util/failpoint.hpp"

namespace cwatpg::svc {

namespace {

/// Terminated job ids remembered for status/cancel after the JobContext
/// itself is released; bounds coordinator memory at high job counts.
constexpr std::size_t kDoneJobHistory = 1024;

std::uint64_t extract_id(const obs::Json& frame) {
  if (!frame.is_object()) return 0;
  const obs::Json* id = frame.find("id");
  if (id == nullptr || !id->is_number()) return 0;
  try {
    return id->as_u64();
  } catch (const std::exception&) {
    return 0;
  }
}

/// True when a worker record holds a post-escalation (phase-3) outcome.
/// kSatRetry/kPodem say so directly; a still-kAborted fault went through
/// the ladder iff it accumulated retry attempts — the per-fault engine's
/// main pass always commits attempts == 1, and every configured ladder
/// rung bumps the count. (The incremental engine breaks this invariant,
/// which is one reason incremental jobs are forwarded whole, not sharded.)
bool is_escalated(const fault::FaultOutcome& o) {
  return o.engine == fault::SolveEngine::kSatRetry ||
         o.engine == fault::SolveEngine::kPodem ||
         (o.status == fault::FaultStatus::kAborted && o.attempts > 1);
}

/// Phase-2/3 strategy that replays recorded worker outcomes through the
/// serial TEGUS pipeline. The pipeline keeps ALL its own bookkeeping —
/// random-phase drops, work-list order, drop-by-simulation, test
/// commitment and verification, escalation accounting — so the merged
/// result is the single-node result by construction; this provider mostly
/// substitutes a map lookup for a SAT solve.
///
/// Workers drop by simulation inside their own window, so a record may be
/// kDroppedBySim by a test the global order never commits (its source
/// fault was itself dropped by an earlier window's test). solve() is only
/// asked for faults the global replay has not dropped, so such a record
/// is solved here, in-process, exactly as a worker would have solved it;
/// if that solve aborts, escalate() defers to the built-in ladder. Once
/// the job's budget has fired such a record counts as missing: the replay
/// stops there and no new SAT work runs at merge.
///
/// An escalated record holds only the fault's final outcome, so solve()
/// hands the pipeline a stand-in main-pass abort that escalate() later
/// replaces. A stand-in that escalate() never replaces (a global ladder
/// test dropped the fault first, or the replay stopped) is restored to the
/// real main-pass abort by restore_main_passes().
class ReplayProvider final : public fault::detail::SolveProvider {
 public:
  ReplayProvider(const net::Network& net,
                 const std::map<std::size_t, WireFaultOutcome>& records,
                 Budget& replay_budget, const Budget& job_budget,
                 std::span<const fault::StuckAtFault> faults,
                 const sat::SolverConfig& solve_config)
      : net_(net),
        records_(records),
        budget_(replay_budget),
        job_budget_(job_budget),
        faults_(faults),
        solve_config_(solve_config) {}

  /// Faults this merge had to solve itself, restored stand-ins included.
  std::uint64_t merge_solves() const { return merge_solves_; }

  /// Replaces every stand-in left in `result` with the fault's main-pass
  /// abort, keeping the status and test the pipeline gave it. The abort
  /// hit the conflict cap (only such a fault is escalated), so re-solving
  /// it without the job budget is bounded and returns the worker's outcome.
  void restore_main_passes(fault::AtpgResult& result) {
    sat::SolverConfig capped = solve_config_;
    capped.budget = nullptr;
    for (const std::size_t fi : stand_ins_) {
      fault::FaultOutcome& outcome = result.outcomes[fi];
      fault::Pattern unused;
      fault::FaultOutcome main =
          fault::generate_test(net_, faults_[fi], capped, workspace_, unused);
      main.status = outcome.status;
      main.test_index = outcome.test_index;
      outcome = main;
      ++merge_solves_;
    }
    stand_ins_.clear();
  }

  fault::FaultOutcome solve(std::size_t fault_index,
                            fault::Pattern& test_out) override {
    const auto it = records_.find(fault_index);
    // No record: the shard owning this fault never completed (cancelled or
    // deadline-fired job).
    if (it == records_.end()) return interrupt(fault_index);
    const fault::FaultOutcome& rec = it->second.outcome;
    if (rec.status == fault::FaultStatus::kDroppedBySim) {
      if (job_budget_.exhausted()) return interrupt(fault_index);
      ++merge_solves_;
      fault::FaultOutcome solved = fault::generate_test(
          net_, faults_[fault_index], solve_config_, workspace_, test_out);
      // A budget that fired mid-solve made the outcome an artifact of the
      // cutoff, not the fault's classification.
      if (job_budget_.exhausted()) return interrupt(fault_index);
      if (solved.status == fault::FaultStatus::kAborted)
        aborted_[fault_index] = solved;
      return solved;
    }
    fault::FaultOutcome o;
    o.fault = faults_[fault_index];
    if (is_escalated(rec)) {
      // The record is the fault's FINAL post-escalation outcome; the main
      // pass must observe the abort that routed it into phase 3.
      o.status = fault::FaultStatus::kAborted;
      o.engine = fault::SolveEngine::kSat;
      o.attempts = 1;
      stand_ins_.insert(fault_index);
      return o;
    }
    o = rec;
    o.fault = faults_[fault_index];
    o.test_index = -1;
    if (o.status == fault::FaultStatus::kDetected) test_out = it->second.test;
    return o;
  }

  std::optional<fault::FaultOutcome> escalate(
      std::size_t fault_index, fault::Pattern& test_out) override {
    stand_ins_.erase(fault_index);
    if (const auto solved = aborted_.find(fault_index);
        solved != aborted_.end()) {
      // Aborted by this merge's own solve: the built-in ladder takes it,
      // unless the budget fired, in which case the abort stands as an
      // interrupted run leaves it.
      if (!job_budget_.exhausted()) return std::nullopt;
      budget_.cancel();
      return solved->second;
    }
    const auto it = records_.find(fault_index);
    if (it == records_.end()) {
      // Unreachable when solve() ran first (a missing record interrupts
      // the run before phase 3); keep the fault aborted defensively.
      budget_.cancel();
      fault::FaultOutcome o;
      o.fault = faults_[fault_index];
      o.status = fault::FaultStatus::kAborted;
      o.engine = fault::SolveEngine::kSat;
      o.attempts = 1;
      return o;
    }
    fault::FaultOutcome o = it->second.outcome;
    o.fault = faults_[fault_index];
    o.test_index = -1;
    if (o.status == fault::FaultStatus::kDetected) test_out = it->second.test;
    return o;
  }

 private:
  /// Fires the replay budget so the pipeline stops exactly where an
  /// interrupted single-node run would; the untouched kUndetermined
  /// outcome is what that run leaves behind.
  fault::FaultOutcome interrupt(std::size_t fault_index) {
    budget_.cancel();
    fault::FaultOutcome o;
    o.fault = faults_[fault_index];
    return o;
  }

  const net::Network& net_;
  const std::map<std::size_t, WireFaultOutcome>& records_;
  Budget& budget_;
  const Budget& job_budget_;
  std::span<const fault::StuckAtFault> faults_;
  sat::SolverConfig solve_config_;
  fault::SatWorkspace workspace_;  // every solve this merge runs
  /// Main-pass aborts of the faults solved here, by fault index.
  std::map<std::size_t, fault::FaultOutcome> aborted_;
  /// Faults holding a stand-in main-pass abort, ascending.
  std::set<std::size_t> stand_ins_;
  std::uint64_t merge_solves_ = 0;
};

}  // namespace

/// Everything the coordinator tracks for one admitted job. Mutable fields
/// are guarded by the cluster mutex; `records` becomes read-only once the
/// terminal is claimed (merge then runs lock-free).
struct Cluster::JobContext {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kRunAtpg;
  obs::Json params;
  std::shared_ptr<const CircuitEntry> circuit;
  std::string bench_text;  ///< for lazy replication to workers
  bool sharded = false;
  bool raw_outcomes = false;  ///< client asked for per-fault records
  Budget budget;              ///< job deadline + cancellation token
  Timer timer;

  // -- guarded by Cluster::mutex_ --
  std::map<std::size_t, WireFaultOutcome> records;  ///< first ingest wins
  std::size_t shards_total = 0;
  std::size_t shards_accounted = 0;
  std::uint64_t redispatches = 0;
  /// Poison windows this job had executed in-process, named in the
  /// response so an operator can see exactly which fault range kept
  /// killing workers.
  std::vector<std::pair<std::size_t, std::size_t>> poison_windows;
  std::uint64_t inprocess_faults = 0;
  bool cancelled = false;
  bool terminal_sent = false;
};

Cluster::Cluster(std::vector<WorkerEndpoint> workers, ClusterOptions options)
    : options_(options), registry_(options.registry_bytes) {
  if (workers.empty())
    throw std::invalid_argument("Cluster: at least one worker is required");
  if (options_.shard_size == 0) options_.shard_size = 1;
  workers_.reserve(workers.size());
  for (WorkerEndpoint& e : workers) {
    auto w = std::make_unique<WorkerState>();
    w->endpoint = std::move(e);
    if (w->endpoint.name.empty())
      w->endpoint.name = "w" + std::to_string(workers_.size());
    w->supervisor = SlotSupervisor(options_.supervisor, workers_.size());
    workers_.push_back(std::move(w));
  }
  alive_ = workers_.size();
  stats_.workers = workers_.size();
  stats_.alive = workers_.size();
  metrics_.counter("cluster.workers").add(workers_.size());
}

Cluster::~Cluster() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->endpoint.transport != nullptr) w->endpoint.transport->close();
}

ClusterStats Cluster::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ClusterStats s = stats_;
  s.alive = alive_;
  s.respawning = respawning_;
  s.quarantined = 0;
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->supervisor.quarantined()) ++s.quarantined;
  return s;
}

// ---- serve loop -----------------------------------------------------------

void Cluster::serve(Transport& transport) {
  if (transport_ != nullptr || shutting_down_)
    throw std::logic_error("svc::Cluster::serve is single-use");
  transport_ = &transport;
  for (const std::unique_ptr<WorkerState>& w : workers_) {
    WorkerState* ws = w.get();
    ws->thread = std::thread([this, ws] { worker_loop(*ws); });
  }

  fp::DomainScope reader_domain("cluster.reader");
  bool got_shutdown = false;
  std::uint64_t shutdown_id = 0;
  obs::Json frame;
  while (!got_shutdown) {
    bool have_frame = false;
    try {
      have_frame = transport.read(frame);
    } catch (const ProtocolError& e) {
      transport.write(make_error(0, ErrorCode::kBadRequest, e.what()));
      break;
    }
    if (!have_frame) break;  // peer closed: implicit shutdown, no response
    try {
      const Request req = Request::from_json(frame);
      metrics_
          .counter(std::string("cluster.requests.") + to_string(req.kind))
          .add(1);
      switch (req.kind) {
        case RequestKind::kLoadCircuit:
          handle_load_circuit(req);
          break;
        case RequestKind::kRunAtpg:
        case RequestKind::kFsim:
          admit_job(req);
          break;
        case RequestKind::kStatus:
          handle_status(req);
          break;
        case RequestKind::kCancel:
          handle_cancel(req);
          break;
        case RequestKind::kShutdown:
          got_shutdown = true;
          shutdown_id = req.id;
          break;
      }
    } catch (const ProtocolError& e) {
      transport.write(
          make_error(extract_id(frame), ErrorCode::kBadRequest, e.what()));
    }
  }

  // Drain: stop admission, let every active job reach its terminal, then
  // (for an explicit shutdown) answer LAST, mirroring Server::serve.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
    drain_cv_.wait(lock, [&] { return active_jobs_ == 0; });
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (const std::unique_ptr<WorkerState>& w : workers_)
    if (w->thread.joinable()) w->thread.join();

  if (got_shutdown) {
    obs::Json result = cluster_status_json();
    result["drained"] = true;
    transport.write(make_response(shutdown_id, std::move(result)));
  }
  transport.close();
}

// ---- control plane --------------------------------------------------------

void Cluster::handle_load_circuit(const Request& req) {
  std::shared_ptr<const CircuitEntry> entry;
  bool already_loaded = false;
  std::string text;
  try {
    const std::string format = [&] {
      const obs::Json* f = req.params.find("format");
      return f != nullptr && f->is_string() ? f->as_string()
                                            : std::string("bench");
    }();
    if (format != "bench")
      throw ProtocolError("unsupported circuit format \"" + format + "\"");
    text = param_string_required(req.params, "text");
    const obs::Json* name = req.params.find("name");
    entry = registry_.load_bench(
        text,
        name != nullptr && name->is_string() ? name->as_string()
                                             : std::string("circuit"),
        &already_loaded);
  } catch (const ProtocolError& e) {
    transport_->write(make_error(req.id, ErrorCode::kBadRequest, e.what()));
    return;
  } catch (const std::bad_alloc&) {
    transport_->write(make_error(req.id, ErrorCode::kInternal,
                                 "out of memory while loading circuit"));
    return;
  } catch (const std::exception& e) {
    transport_->write(make_error(req.id, ErrorCode::kBadRequest, e.what()));
    return;
  }
  // Keep the source text for worker replication, keyed by the same
  // structural content hash the registry dedups on: re-loading an
  // identical circuit (under any name) is a no-op end to end.
  bench_texts_[entry->key] = std::move(text);
  // This load may have pushed older entries past the registry's LRU
  // budget; drop their replication texts too, or the text cache grows
  // without bound with distinct circuits. (An evicted key cannot be
  // admitted anyway, and already-admitted jobs carry their own copy.)
  for (auto it = bench_texts_.begin(); it != bench_texts_.end();) {
    if (it->first != entry->key && !registry_.retains(it->first))
      it = bench_texts_.erase(it);
    else
      ++it;
  }
  obs::Json result = obs::Json::object();
  result["circuit"] = entry->to_json();
  result["already_loaded"] = already_loaded;
  result["registry"] = registry_.stats().to_json();
  transport_->write(make_response(req.id, std::move(result)));
}

void Cluster::handle_status(const Request& req) {
  if (const obs::Json* job_param = req.params.find("job");
      job_param != nullptr) {
    const std::uint64_t id = param_u64(req.params, "job", 0);
    const char* state = "unknown";
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = jobs_.find(id); it != jobs_.end())
        state = it->second->terminal_sent ? "done" : "running";
      else if (done_jobs_.count(id) != 0)
        state = "done";
    }
    obs::Json result = obs::Json::object();
    result["job"] = id;
    result["state"] = state;
    transport_->write(make_response(req.id, std::move(result)));
    return;
  }
  transport_->write(make_response(req.id, cluster_status_json()));
}

obs::Json Cluster::cluster_status_json() {
  obs::Json j = obs::Json::object();
  j["cluster"] = true;
  obs::Json workers = obs::Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    j["shutting_down"] = shutting_down_;
    j["workers"] = static_cast<std::uint64_t>(workers_.size());
    j["workers_alive"] = static_cast<std::uint64_t>(alive_);
    j["workers_respawning"] = static_cast<std::uint64_t>(respawning_);
    std::uint64_t quarantined = 0;
    for (const std::unique_ptr<WorkerState>& w : workers_) {
      obs::Json wj = obs::Json::object();
      wj["name"] = w->endpoint.name;
      wj["pid"] = static_cast<std::int64_t>(w->endpoint.pid);
      wj["alive"] = w->alive;
      wj["respawning"] = w->respawning;
      wj["quarantined"] = w->supervisor.quarantined();
      if (w->supervisor.quarantined()) ++quarantined;
      wj["generation"] = w->supervisor.generation();
      wj["restarts"] = w->supervisor.restarts();
      wj["last_exit"] = w->supervisor.last_exit();
      // Cumulative across generations: a respawn never erases history.
      wj["shards_completed"] = w->shards_completed;
      wj["redispatches_caused"] = w->redispatches_caused;
      workers.push_back(std::move(wj));
    }
    j["workers_quarantined"] = quarantined;
    j["shards_dispatched"] = stats_.shards_dispatched;
    j["redispatched"] = stats_.redispatched;
    j["worker_deaths"] = stats_.worker_deaths;
    j["respawns"] = stats_.respawns;
    j["heartbeat_failures"] = stats_.heartbeat_failures;
    j["poison_windows"] = stats_.poison_windows;
    j["inprocess_faults"] = stats_.inprocess_faults;
    j["merge_solves"] = stats_.merge_solves;
    j["jobs_completed"] = stats_.jobs_completed;
    j["jobs_failed"] = stats_.jobs_failed;
    j["active_jobs"] = static_cast<std::uint64_t>(active_jobs_);
    j["queue_depth"] = static_cast<std::uint64_t>(queue_.size());
  }
  j["worker_pool"] = std::move(workers);
  j["registry"] = registry_.stats().to_json();
  j["metrics"] = metrics_.snapshot().to_json();
  return j;
}

void Cluster::handle_cancel(const Request& req) {
  if (req.params.find("job") == nullptr)
    throw ProtocolError("param \"job\" (request id) is required");
  const std::uint64_t id = param_u64(req.params, "job", 0);

  const char* state = "unknown";
  std::shared_ptr<JobContext> job;
  bool forwarded_queued = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = jobs_.find(id); it != jobs_.end()) {
      job = it->second;
      if (job->terminal_sent) {
        state = "done";
        job = nullptr;
      } else {
        state = "cancelling";
        job->cancelled = true;
        job->budget.cancel();
        // Queued shards of this job will never run; account them now so
        // the partial terminal fires as soon as in-flight shards return.
        for (auto it2 = queue_.begin(); it2 != queue_.end();) {
          if (it2->job == job) {
            ++job->shards_accounted;
            if (!job->sharded) forwarded_queued = true;
            it2 = queue_.erase(it2);
          } else {
            ++it2;
          }
        }
        fan_out_cancel_locked(id);
      }
    } else if (done_jobs_.count(id) != 0) {
      state = "done";
    }
  }
  obs::Json result = obs::Json::object();
  result["job"] = id;
  result["state"] = state;
  transport_->write(make_response(req.id, std::move(result)));

  if (job == nullptr) return;
  if (!job->sharded) {
    // A forwarded job swept out of the queue above will never reach a
    // worker, and pop_shard's cancelled-while-queued path cannot fire for
    // a shard that is no longer queued — its terminal must come from
    // here, or the client hangs and the shutdown drain deadlocks.
    if (forwarded_queued)
      fail_job(job, ErrorCode::kCancelled, "cancelled while queued");
    return;
  }
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    complete =
        !job->terminal_sent && job->shards_accounted >= job->shards_total;
  }
  if (complete) finish_sharded_job(job);
}

void Cluster::fan_out_cancel_locked(std::uint64_t job_id) {
  // Out-of-band cancel: the worker threads own their Clients (and are
  // blocked awaiting shard replies), so the reader writes the cancel frame
  // directly — Transport::write is thread-safe — under request id 0,
  // which the worker daemon answers inline and the owning Client's router
  // drops as a session-level frame.
  for (const std::unique_ptr<WorkerState>& w : workers_) {
    if (!w->alive || w->inflight_job != job_id || w->inflight_worker_id == 0)
      continue;
    Request cancel;
    cancel.id = 0;
    cancel.kind = RequestKind::kCancel;
    cancel.params = obs::Json::object();
    cancel.params["job"] = w->inflight_worker_id;
    w->endpoint.transport->write(cancel.to_json());
  }
}

// ---- admission ------------------------------------------------------------

void Cluster::admit_job(const Request& req) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      transport_->write(make_error(req.id, ErrorCode::kShuttingDown,
                                   "cluster is draining"));
      return;
    }
    if (alive_ + respawning_ == 0) {
      // No worker thread is left to pop the queue (and none is between
      // generations): admitting would strand the job without a terminal.
      transport_->write(make_error(req.id, ErrorCode::kInternal,
                                   "all cluster workers died"));
      return;
    }
  }
  const std::string key = param_string_required(req.params, "circuit");
  std::shared_ptr<const CircuitEntry> circuit = registry_.find(key);
  if (circuit == nullptr) {
    transport_->write(make_error(req.id, ErrorCode::kNotFound,
                                 "unknown circuit \"" + key +
                                     "\" (load_circuit it first)"));
    return;
  }

  auto job = std::make_shared<JobContext>();
  job->id = req.id;
  job->kind = req.kind;
  job->params = req.params;
  job->circuit = circuit;
  if (const auto it = bench_texts_.find(circuit->key);
      it != bench_texts_.end())
    job->bench_text = it->second;

  if (req.kind == RequestKind::kRunAtpg) {
    // Validate (and classify) the request up front with the SAME mapping
    // the workers apply, so a bad request fails here, not across N shards.
    fault::AtpgOptions opts;
    try {
      opts = atpg_options_from_params(req.params, *circuit);
    } catch (const ProtocolError& e) {
      transport_->write(make_error(req.id, ErrorCode::kBadRequest, e.what()));
      return;
    }
    job->raw_outcomes = param_bool(req.params, "raw_outcomes", false);
    // Shard only when per-fault outcomes are history-independent: the
    // per-fault engine over the full fault list. Incremental jobs (one
    // shared solver whose per-fault stats depend on query order) and
    // requests that already carry their own window are forwarded whole.
    job->sharded = opts.engine == fault::AtpgEngine::kPerFault &&
                   opts.fault_subset.empty() && !circuit->faults.empty();
  }
  const double deadline = param_double(req.params, "deadline_seconds",
                                       options_.default_deadline_seconds);
  if (deadline > 0.0) job->budget.set_deadline_after(deadline);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (alive_ + respawning_ == 0) {
      // Re-checked under the registration lock: the last worker may have
      // died since the admission-time probe, and its all-dead sweep only
      // fails jobs that were registered when it ran.
      transport_->write(make_error(req.id, ErrorCode::kInternal,
                                   "all cluster workers died"));
      return;
    }
    if (const auto it = jobs_.find(req.id);
        it != jobs_.end() && !it->second->terminal_sent) {
      transport_->write(
          make_error(req.id, ErrorCode::kBadRequest,
                     "cwatpg.rpc: request id " + std::to_string(req.id) +
                         " already names a live job"));
      return;
    }
    jobs_[req.id] = job;
    ++active_jobs_;
    if (job->sharded) {
      const std::size_t n = circuit->faults.size();
      for (std::size_t lo = 0; lo < n; lo += options_.shard_size) {
        Shard s;
        s.job = job;
        s.lo = lo;
        s.hi = std::min(lo + options_.shard_size, n);
        queue_.push_back(std::move(s));
        ++job->shards_total;
      }
    } else {
      Shard s;
      s.job = job;
      queue_.push_back(std::move(s));
      job->shards_total = 1;
    }
  }
  queue_cv_.notify_all();
  metrics_.counter("cluster.jobs.admitted").add(1);
  // No admission ack: the job's single terminal response is the reply.
}

// ---- shard dispatch -------------------------------------------------------

Cluster::Pop Cluster::pop_shard(Shard& out, double idle_timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const auto ready = [&] { return queue_closed_ || !queue_.empty(); };
    if (idle_timeout_seconds > 0.0) {
      if (!queue_cv_.wait_for(
              lock, std::chrono::duration<double>(idle_timeout_seconds),
              ready))
        return Pop::kIdle;  // the caller's heartbeat tick
    } else {
      queue_cv_.wait(lock, ready);
    }
    if (queue_.empty()) return Pop::kClosed;  // closed and drained
    out = std::move(queue_.front());
    queue_.pop_front();
    const std::shared_ptr<JobContext> job = out.job;
    if (job->terminal_sent) {
      out = Shard{};
      continue;
    }
    if (job->cancelled || job->budget.exhausted()) {
      if (job->sharded) {
        // Never dispatched: account it so the partial terminal can fire.
        ++job->shards_accounted;
        const bool complete = job->shards_accounted >= job->shards_total;
        if (complete) {
          lock.unlock();
          finish_sharded_job(job);
          lock.lock();
        }
      } else {
        lock.unlock();
        fail_job(job, ErrorCode::kCancelled, "cancelled while queued");
        lock.lock();
      }
      out = Shard{};
      continue;
    }
    return Pop::kShard;
  }
}

void Cluster::worker_loop(WorkerState& w) {
  // One SHARED failpoint domain for all worker threads: `once`/`nth:N`
  // schedules then fire for exactly one thread cluster-wide, which is what
  // "kill ONE worker mid-job" drills mean.
  fp::DomainScope domain("cluster.worker");
  while (true) {
    if (serve_generation(w)) return;  // clean queue close (drain)
    bool reviving = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      reviving = w.respawning;
    }
    // No respawn factory (or the drain began): the PR 8 shrink behavior —
    // this slot is gone for good.
    if (!reviving) return;
    if (!await_respawn(w)) return;  // quarantined or queue closed
  }
}

bool Cluster::serve_generation(WorkerState& w) {
  // The Client is per-generation: it holds a reference to the current
  // transport, which await_respawn replaces.
  Client client(*w.endpoint.transport, options_.client);
  const double tick = options_.supervisor.heartbeat_seconds;
  Shard shard;
  while (true) {
    switch (pop_shard(shard, tick)) {
      case Pop::kClosed:
        // Clean queue close (coordinator drain): pass the shutdown
        // downstream so worker daemons drain and exit instead of waiting
        // on stdin, then collect the child.
        try {
          client.call("shutdown");
        } catch (const std::exception&) {
          // The worker died just before the drain; nothing left to stop.
        }
        w.endpoint.transport->close();
        reap_slot(w, /*kill_first=*/false);
        return true;
      case Pop::kIdle:
        if (heartbeat(w, client)) continue;
        on_worker_death(w, shard);  // shard is empty: nothing to forfeit
        return false;
      case Pop::kShard:
        if (!run_shard(w, client, shard)) {
          on_worker_death(w, shard);
          return false;
        }
        shard = Shard{};  // release the job reference between shards
        continue;
    }
  }
}

bool Cluster::heartbeat(WorkerState& w, Client& client) {
  // Failpoint: the worker wedges — alive but never answering. The probe
  // must convert that into the same EOF-shaped death signal a killed
  // worker gives.
  bool ok = !CWATPG_FAILPOINT("cluster.heartbeat.stall");
  if (ok) {
    if (!w.endpoint.transport->set_read_timeout(
            options_.supervisor.heartbeat_timeout_seconds))
      return true;  // unbounded transport: a probe could hang us — skip
    try {
      client.call("status");
    } catch (const std::exception&) {
      ok = false;  // timeout or torn session
    }
    w.endpoint.transport->set_read_timeout(0.0);
    metrics_.counter("cluster.supervisor.heartbeats").add(1);
  }
  if (!ok) {
    metrics_.counter("cluster.supervisor.heartbeat_failures").add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.heartbeat_failures;
  }
  return ok;
}

std::string Cluster::reap_slot(WorkerState& w, bool kill_first) {
  std::int64_t pid = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pid = w.endpoint.pid;
  }
  if (pid <= 0) return "eof";  // in-process or remote: nothing to reap
  return reap_child_exit(pid, kill_first).describe();
}

bool Cluster::await_respawn(WorkerState& w) {
  while (true) {
    double delay = 0.0;
    bool exhausted = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_closed_) {
        w.respawning = false;
        --respawning_;
        return false;
      }
      exhausted = w.supervisor.exhausted();
      if (!exhausted) delay = w.supervisor.next_delay();
    }
    if (exhausted) {
      // Crash loop: quarantine the slot loudly instead of spinning.
      bool all_dead = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        w.supervisor.quarantine();
        w.respawning = false;
        --respawning_;
        all_dead = alive_ == 0 && respawning_ == 0;
      }
      metrics_.counter("cluster.supervisor.quarantined").add(1);
      if (all_dead) fail_all_jobs("all cluster workers died");
      return false;
    }
    {
      // Interruptible backoff: a drain must not wait out the schedule.
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait_for(lock, std::chrono::duration<double>(delay),
                         [&] { return queue_closed_; });
      if (queue_closed_) {
        w.respawning = false;
        --respawning_;
        return false;
      }
    }
    WorkerEndpoint::Respawned next;
    // Failpoint: the respawn itself fails (fork/exec or re-dial error);
    // counts toward the crash-loop window and backs off harder.
    bool ok = !CWATPG_FAILPOINT("cluster.respawn.fail");
    if (ok) {
      try {
        next = w.endpoint.respawn();
      } catch (const std::exception&) {
        ok = false;
      }
      ok = ok && next.transport != nullptr;
    }
    if (!ok) {
      metrics_.counter("cluster.supervisor.respawn_failures").add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      w.supervisor.note_respawn_failure();
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // The transport swap is safe here: this slot's Client died with
      // serve_generation, and every other-thread writer (cancel fan-out)
      // checks w.alive under this mutex first.
      w.endpoint.transport = std::move(next.transport);
      w.endpoint.pid = next.pid;
      // New generation, empty replication state: circuits re-replicate
      // lazily by content hash exactly like a first load.
      w.loaded.clear();
      w.supervisor.note_respawned();
      w.alive = true;
      ++alive_;
      w.respawning = false;
      --respawning_;
      ++stats_.respawns;
    }
    metrics_.counter("cluster.supervisor.respawns").add(1);
    return true;
  }
}

bool Cluster::run_shard(WorkerState& w, Client& client, Shard& shard) {
  const std::shared_ptr<JobContext> job = shard.job;
  // Failpoint: the dispatch itself is dropped (frame lost before the
  // worker saw it). The worker is fine; the shard takes the redispatch
  // path.
  if (CWATPG_FAILPOINT("cluster.dispatch.drop")) {
    redispatch(w, shard, "dispatch dropped (cluster.dispatch.drop)");
    return true;
  }
  // Failpoint: fault K is poison — every dispatch of a window containing
  // it kills the worker (`cluster.shard.poison=always@K`). Returning
  // false is exactly the signal a real crash gives, so this drives the
  // full quarantine ladder: death → redispatch → second death → bisect →
  // … → width-1 window executed in-process.
  if (job->sharded) {
    const int poison = CWATPG_FAILPOINT_ARG("cluster.shard.poison");
    if (poison >= 0 && static_cast<std::size_t>(poison) >= shard.lo &&
        static_cast<std::size_t>(poison) < shard.hi)
      return false;
  }
  try {
    // Lazy replication, idempotent by content hash: the first shard of a
    // circuit on this worker ships the bench text; re-sends after a
    // failover ack with already_loaded.
    if (!job->bench_text.empty() &&
        w.loaded.count(job->circuit->key) == 0) {
      obs::Json p = obs::Json::object();
      p["text"] = job->bench_text;
      p["name"] = job->circuit->net.name();
      const obs::Json reply = client.call("load_circuit", std::move(p));
      const obs::Json* ok = reply.find("ok");
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        redispatch(w, shard, "worker rejected load_circuit");
        return true;
      }
      w.loaded.insert(job->circuit->key);
    }

    obs::Json params = job->params;
    if (job->sharded) {
      obs::Json range = obs::Json::array();
      range.push_back(static_cast<std::uint64_t>(shard.lo));
      range.push_back(static_cast<std::uint64_t>(shard.hi));
      params["fault_range"] = std::move(range);
      // Workers run the job's own policy over their window, dropping by
      // simulation only with the window's own tests, and report raw per-
      // fault records; the coordinator's replay re-applies global dropping.
      params["raw_outcomes"] = true;
      params["threads"] = std::uint64_t(1);
    }
    double deadline = 0.0;
    if (job->budget.has_deadline())
      deadline = std::max(job->budget.remaining_seconds(), 1e-3);
    if (job->sharded && options_.shard_deadline_seconds > 0.0)
      deadline = deadline > 0.0
                     ? std::min(deadline, options_.shard_deadline_seconds)
                     : options_.shard_deadline_seconds;
    if (deadline > 0.0) params["deadline_seconds"] = deadline;

    const std::uint64_t wid =
        client.submit(to_string(job->kind), std::move(params));
    bool send_cancel_now = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.shards_dispatched;
      if (shard.attempt > 0) metrics_.counter("cluster.shards.retried").add(1);
      w.inflight_worker_id = wid;
      w.inflight_job = job->id;
      // Close the submit/cancel race: a cancel that fanned out before we
      // registered the in-flight id missed this worker.
      send_cancel_now = job->cancelled;
    }
    metrics_.counter("cluster.shards").add(1);
    if (send_cancel_now) {
      Request cancel;
      cancel.id = 0;
      cancel.kind = RequestKind::kCancel;
      cancel.params = obs::Json::object();
      cancel.params["job"] = wid;
      w.endpoint.transport->write(cancel.to_json());
    }

    std::optional<obs::Json> reply = client.await(wid);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      w.inflight_worker_id = 0;
      w.inflight_job = 0;
    }
    if (!reply) return false;  // transport closed mid-await: worker died
    // Failpoint: the worker dies right after answering — its reply is
    // lost with it. Exercises un-acked-shard redispatch end to end.
    if (CWATPG_FAILPOINT("cluster.worker.eof")) return false;

    const obs::Json* okf = reply->find("ok");
    const bool ok = okf != nullptr && okf->is_bool() && okf->as_bool();

    if (!job->sharded) {
      // Forwarded whole job: the worker's reply IS the terminal; only the
      // correlation ids are rewritten to the coordinator's.
      if (claim_terminal(job)) {
        obs::Json terminal = std::move(*reply);
        terminal["id"] = job->id;
        if (ok) {
          obs::Json& result = terminal["result"];
          if (result.is_object() && result.find("job") != nullptr)
            result["job"] = job->id;
        }
        send_terminal(job, std::move(terminal));
        std::lock_guard<std::mutex> lock(mutex_);
        ++w.shards_completed;
        if (ok)
          ++stats_.jobs_completed;
        else
          ++stats_.jobs_failed;
      }
      return true;
    }

    bool partial_ok = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      partial_ok = job->cancelled;
    }
    partial_ok = partial_ok || job->budget.exhausted();

    if (!ok) {
      if (partial_ok) {
        // The worker never ran the cancelled shard ("cancelled" error):
        // a zero-record accounting keeps the partial-terminal math right.
        bool complete = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (job->terminal_sent) return true;
          ++job->shards_accounted;
          ++w.shards_completed;
          complete = job->shards_accounted >= job->shards_total;
        }
        if (complete) finish_sharded_job(job);
        return true;
      }
      const obs::Json* error = reply->find("error");
      const obs::Json* message =
          error != nullptr && error->is_object() ? error->find("message")
                                                 : nullptr;
      redispatch(w, shard,
                 message != nullptr && message->is_string()
                     ? message->as_string()
                     : std::string("worker rejected the shard"));
      return true;
    }

    const obs::Json* result = reply->find("result");
    if (result == nullptr || !result->is_object()) {
      redispatch(w, shard, "malformed shard reply");
      return true;
    }
    const obs::Json* interrupted_f = result->find("interrupted");
    const bool interrupted = interrupted_f != nullptr &&
                             interrupted_f->is_bool() &&
                             interrupted_f->as_bool();
    if (interrupted && !partial_ok) {
      // The worker hit its own shard deadline (wedged or overloaded):
      // nothing was lost, but the records are not a complete window —
      // discard them and hand the shard to a survivor.
      redispatch(w, shard, "worker returned an interrupted shard");
      return true;
    }
    if (!ingest_reply(shard, *result, interrupted || partial_ok)) {
      redispatch(w, shard, "incomplete shard reply");
      return true;
    }
    bool complete = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++w.shards_completed;
      complete = !job->terminal_sent &&
                 job->shards_accounted >= job->shards_total;
    }
    if (complete) finish_sharded_job(job);
    return true;
  } catch (const ProtocolError&) {
    // Torn frames from a dying peer: the stream is unusable.
    return false;
  } catch (const std::runtime_error&) {
    // Client: transport closed while a call/await was pending.
    return false;
  }
}

bool Cluster::ingest_reply(Shard& shard, const obs::Json& result,
                           bool partial_ok) {
  const std::shared_ptr<JobContext>& job = shard.job;
  const obs::Json* raw = result.find("raw");
  std::vector<WireFaultOutcome> decoded;
  if (raw != nullptr && raw->is_array()) {
    decoded.reserve(raw->size());
    for (const obs::Json& r : raw->items()) {
      WireFaultOutcome rec =
          decode_fault_outcome(r, job->circuit->net.inputs().size());
      if (rec.index < shard.lo || rec.index >= shard.hi)
        continue;  // out-of-window record: not this shard's to report
      decoded.push_back(std::move(rec));
    }
  }
  // Failpoint: the merge sees a truncated reply — drop the tail half of
  // the records. The completeness check below must catch it and route the
  // shard through redispatch, never into a silently-partial merge.
  if (CWATPG_FAILPOINT("cluster.merge.partial") && decoded.size() > 1)
    decoded.resize(decoded.size() / 2);
  if (!partial_ok) {
    // A complete window reports every index in [lo, hi) exactly once, in
    // ascending order (the server emits them that way).
    if (decoded.size() != shard.hi - shard.lo) return false;
    for (std::size_t k = 0; k < decoded.size(); ++k)
      if (decoded[k].index != shard.lo + k) return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (job->terminal_sent) return true;  // late reply; terminal already out
  for (WireFaultOutcome& rec : decoded) {
    if (partial_ok && rec.outcome.status == fault::FaultStatus::kUndetermined)
      continue;  // an interrupted worker's unreached fault says nothing
    job->records.emplace(rec.index, std::move(rec));  // first ingest wins
  }
  ++job->shards_accounted;
  return true;
}

void Cluster::redispatch(WorkerState& w, Shard& shard,
                         const std::string& cause) {
  const std::shared_ptr<JobContext> job = shard.job;
  bool fail = false;
  bool finish_partial = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->terminal_sent) return;
    if (job->cancelled || job->budget.exhausted()) {
      // Re-running a dead job's shard is wasted work: account it empty.
      ++job->shards_accounted;
      finish_partial = job->sharded &&
                       job->shards_accounted >= job->shards_total;
    } else if (shard.attempt >= 1) {
      fail = true;
    } else {
      ++shard.attempt;
      ++stats_.redispatched;
      ++job->redispatches;
      ++w.redispatches_caused;
      queue_.push_front(shard);
    }
  }
  if (fail) {
    fail_job(job, ErrorCode::kInternal,
             "shard [" + std::to_string(shard.lo) + ", " +
                 std::to_string(shard.hi) + ") failed after redispatch: " +
                 cause);
    return;
  }
  if (finish_partial) {
    finish_sharded_job(job);
    return;
  }
  metrics_.counter("cluster.redispatched").add(1);
  queue_cv_.notify_all();
}

void Cluster::on_worker_death(WorkerState& w, Shard& shard) {
  bool all_dead = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (w.alive) {
      w.alive = false;
      --alive_;
      ++stats_.worker_deaths;
    }
    w.inflight_worker_id = 0;
    w.inflight_job = 0;
    // Decide respawn intent INSIDE the death transition: a slot between
    // generations still counts as capacity, so a sibling's concurrent
    // death cannot fire the all-dead sweep while this one is reviving.
    const bool will_respawn = static_cast<bool>(w.endpoint.respawn) &&
                              !w.supervisor.quarantined() && !queue_closed_;
    if (will_respawn && !w.respawning) {
      w.respawning = true;
      ++respawning_;
    }
    all_dead = alive_ == 0 && respawning_ == 0;
  }
  metrics_.counter("cluster.worker_deaths").add(1);
  w.endpoint.transport->close();
  // Reap the child NOW — not at coordinator exit — so a kill -9'd worker
  // never lingers as a zombie, and `status` can report how it died.
  const std::string last_exit = reap_slot(w, /*kill_first=*/true);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    w.supervisor.note_death(last_exit);
  }
  // The un-acked shard is the worker's forfeit: hand it to a survivor,
  // or — when this window has now killed two generations — route it
  // through poison-shard quarantine. Runs BEFORE the all-dead sweep so a
  // poison window's in-process fallback can still complete its job even
  // when this was the last worker.
  if (shard.job != nullptr) forfeit_shard(w, shard);
  if (all_dead) fail_all_jobs("all cluster workers died");
}

void Cluster::fail_all_jobs(const std::string& why) {
  std::vector<std::shared_ptr<JobContext>> victims;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_)
      if (!job->terminal_sent) victims.push_back(job);
  }
  for (const std::shared_ptr<JobContext>& job : victims)
    fail_job(job, ErrorCode::kInternal, why);
}

void Cluster::forfeit_shard(WorkerState& w, Shard& shard) {
  const std::shared_ptr<JobContext> job = shard.job;
  if (!job->sharded) {
    // A forwarded whole job keeps the one-redispatch budget: there is no
    // window to bisect and no raw-record merge path to complete it
    // in-process.
    redispatch(w, shard, "worker \"" + w.endpoint.name + "\" died");
    return;
  }
  ++shard.deaths;
  if (shard.deaths >= 2) {
    quarantine_shard(w, shard);
    return;
  }
  bool finish_partial = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->terminal_sent) return;
    if (job->cancelled || job->budget.exhausted()) {
      // Re-running a dead job's shard is wasted work: account it empty.
      ++job->shards_accounted;
      finish_partial = job->shards_accounted >= job->shards_total;
    } else {
      ++stats_.redispatched;
      ++job->redispatches;
      ++w.redispatches_caused;
      queue_.push_front(shard);
    }
  }
  if (finish_partial) {
    finish_sharded_job(job);
    return;
  }
  metrics_.counter("cluster.redispatched").add(1);
  queue_cv_.notify_all();
}

void Cluster::quarantine_shard(WorkerState& w, Shard& shard) {
  (void)w;
  const std::shared_ptr<JobContext> job = shard.job;
  if (shard.hi - shard.lo <= 1) {
    // The residual minimal window IS the poison: run it on the
    // coordinator, whose process we trust with it (and whose death would
    // end the job anyway).
    run_window_inprocess(job, shard.lo, shard.hi);
    return;
  }
  // Bisect to isolate the offending fault range. Each half starts with
  // one inherited death so a half that kills again quarantines (or
  // bisects further) immediately; the innocent half completes normally on
  // the next worker. Convergence is O(log window) extra deaths.
  bool queued = false;
  bool finish_partial = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->terminal_sent) return;
    if (job->cancelled || job->budget.exhausted()) {
      ++job->shards_accounted;
      finish_partial = job->shards_accounted >= job->shards_total;
    } else {
      const std::size_t mid = shard.lo + (shard.hi - shard.lo) / 2;
      Shard left;
      left.job = job;
      left.lo = shard.lo;
      left.hi = mid;
      left.deaths = 1;
      Shard right;
      right.job = job;
      right.lo = mid;
      right.hi = shard.hi;
      right.deaths = 1;
      ++job->shards_total;  // one window became two
      queue_.push_front(std::move(right));
      queue_.push_front(std::move(left));
      queued = true;
    }
  }
  if (finish_partial) {
    finish_sharded_job(job);
    return;
  }
  if (queued) {
    metrics_.counter("cluster.supervisor.bisections").add(1);
    queue_cv_.notify_all();
  }
}

void Cluster::run_window_inprocess(const std::shared_ptr<JobContext>& job,
                                   std::size_t lo, std::size_t hi) {
  metrics_.counter("cluster.supervisor.inprocess_windows").add(1);
  std::vector<WireFaultOutcome> decoded;
  bool interrupted = false;
  try {
    // Exactly the request a worker would have received for this window
    // (run_shard's dispatch params), through the same shared
    // params→options mapping. Per-fault classification is a pure function
    // of (circuit, fault, options), so WHERE the window runs cannot leak
    // into the records.
    obs::Json params = job->params;
    obs::Json range = obs::Json::array();
    range.push_back(static_cast<std::uint64_t>(lo));
    range.push_back(static_cast<std::uint64_t>(hi));
    params["fault_range"] = std::move(range);
    params["raw_outcomes"] = true;
    params["threads"] = std::uint64_t(1);
    fault::AtpgOptions opts = atpg_options_from_params(params, *job->circuit);
    // The job's own budget: cancellation and the deadline propagate into
    // the fallback exactly as they would into a worker-side run.
    opts.budget = &job->budget;
    const fault::AtpgResult result =
        fault::run_atpg(job->circuit->net, opts);
    interrupted = result.interrupted;
    const std::size_t num_inputs = job->circuit->net.inputs().size();
    decoded.reserve(opts.fault_subset.size());
    for (const std::size_t fi : opts.fault_subset) {
      const fault::FaultOutcome& o = result.outcomes[fi];
      const fault::Pattern* test =
          o.status == fault::FaultStatus::kDetected && o.has_test()
              ? &result.tests[o.test()]
              : nullptr;
      // Round-trip through the wire codec so the record is field-for-field
      // what ingesting the same worker reply would have stored.
      decoded.push_back(
          decode_fault_outcome(encode_fault_outcome(fi, o, test), num_inputs));
    }
  } catch (const std::exception& e) {
    fail_job(job, ErrorCode::kInternal,
             "in-process fallback for poison shard [" + std::to_string(lo) +
                 ", " + std::to_string(hi) + ") failed: " + e.what());
    return;
  }
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->terminal_sent) return;
    const bool partial_ok =
        job->cancelled || interrupted || job->budget.exhausted();
    for (WireFaultOutcome& rec : decoded) {
      if (partial_ok &&
          rec.outcome.status == fault::FaultStatus::kUndetermined)
        continue;  // an interrupted run's unreached fault says nothing
      job->records.emplace(rec.index, std::move(rec));  // first ingest wins
    }
    ++job->shards_accounted;
    job->poison_windows.emplace_back(lo, hi);
    job->inprocess_faults += hi - lo;
    ++stats_.poison_windows;
    stats_.inprocess_faults += hi - lo;
    complete = job->shards_accounted >= job->shards_total;
  }
  metrics_.counter("cluster.supervisor.inprocess_faults").add(hi - lo);
  if (complete) finish_sharded_job(job);
}

// ---- job termination ------------------------------------------------------

bool Cluster::claim_terminal(const std::shared_ptr<JobContext>& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (job->terminal_sent) return false;
  job->terminal_sent = true;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->job == job)
      it = queue_.erase(it);
    else
      ++it;
  }
  return true;
}

void Cluster::send_terminal(const std::shared_ptr<JobContext>& job,
                            obs::Json response) {
  transport_->write(response);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_jobs_ > 0) --active_jobs_;
    // The terminal is out: release the job's heavy state (the per-fault
    // records map, and the jobs_ entry pinning the whole context) so a
    // long-lived coordinator does not grow with job count. status/cancel
    // keep answering "done" out of a bounded id history. The entry is
    // erased only if it still maps to THIS job — a reused request id may
    // already name a successor admitted during the merge window.
    job->records.clear();
    if (const auto it = jobs_.find(job->id);
        it != jobs_.end() && it->second == job)
      jobs_.erase(it);
    if (done_jobs_.insert(job->id).second) {
      done_order_.push_back(job->id);
      if (done_order_.size() > kDoneJobHistory) {
        done_jobs_.erase(done_order_.front());
        done_order_.pop_front();
      }
    }
  }
  drain_cv_.notify_all();
}

void Cluster::fail_job(const std::shared_ptr<JobContext>& job, ErrorCode code,
                       const std::string& message) {
  if (!claim_terminal(job)) return;
  metrics_.counter("cluster.jobs.failed").add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_failed;
  }
  send_terminal(job, make_error(job->id, code, message));
}

void Cluster::finish_sharded_job(const std::shared_ptr<JobContext>& job) {
  if (!claim_terminal(job)) return;
  obs::Json result;
  try {
    result = merge_records(*job);
  } catch (const std::exception& e) {
    metrics_.counter("cluster.jobs.failed").add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_failed;
    }
    send_terminal(job, make_error(job->id, ErrorCode::kInternal,
                                  std::string("cluster merge failed: ") +
                                      e.what()));
    return;
  }
  metrics_.counter("cluster.jobs.completed").add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_completed;
  }
  send_terminal(job, make_response(job->id, std::move(result)));
}

obs::Json Cluster::merge_records(JobContext& job) {
  const CircuitEntry& circuit = *job.circuit;
  // Replay the exact single-node pipeline over the recorded outcomes: the
  // same params → options mapping the workers used, the same
  // drop_by_simulation policy, and a private budget the ReplayProvider
  // fires when a record is missing (cancelled/deadline'd job), so a
  // partial merge is shaped exactly like an interrupted single-node run.
  // Merge-time solves run under the job's own deadline and cancellation,
  // as the worker's solve would have.
  fault::AtpgOptions opts = atpg_options_from_params(job.params, circuit);
  opts.budget = &job.budget;
  const sat::SolverConfig solve_config =
      fault::detail::per_fault_solver_config(opts);
  Budget replay_budget;
  opts.budget = &replay_budget;
  ReplayProvider provider(circuit.net, job.records, replay_budget, job.budget,
                          circuit.faults, solve_config);
  const auto simulate = [&circuit](std::span<const fault::StuckAtFault> fs,
                                   std::span<const fault::Pattern> ps) {
    return fault::fault_simulate(circuit.net, fs, ps);
  };
  fault::AtpgResult result =
      fault::detail::run_atpg_pipeline(circuit.net, opts, provider, simulate);
  provider.restore_main_passes(result);
  // A replay that stopped at its last work-list entry never re-checks the
  // budget; it is interrupted all the same.
  result.interrupted = result.interrupted || replay_budget.cancelled();
  const std::uint64_t merge_solves = provider.merge_solves();
  metrics_.counter("cluster.merge.inprocess_solves").add(merge_solves);

  obs::ReportOptions ropts;
  ropts.label = "cluster/" + circuit.key;
  ropts.engine = "cluster";
  ropts.threads = stats_.workers;
  ropts.seed = opts.seed;
  const obs::RunReport report =
      obs::build_run_report(circuit.net, result, ropts);

  obs::Json j = obs::Json::object();
  j["job"] = job.id;
  j["circuit"] = circuit.key;
  j["engine"] = "cluster";
  j["threads"] = static_cast<std::uint64_t>(stats_.workers);
  j["interrupted"] = result.interrupted;
  j["stop"] = to_string(job.budget.poll());
  j["faults"] = static_cast<std::uint64_t>(result.outcomes.size());
  j["num_detected"] = static_cast<std::uint64_t>(result.num_detected);
  j["num_untestable"] = static_cast<std::uint64_t>(result.num_untestable);
  j["num_aborted"] = static_cast<std::uint64_t>(result.num_aborted);
  j["num_undetermined"] =
      static_cast<std::uint64_t>(result.num_undetermined);
  j["coverage"] = result.fault_coverage();
  j["efficiency"] = result.fault_efficiency();
  obs::Json tests = obs::Json::array();
  for (const fault::Pattern& test : result.tests)
    tests.push_back(encode_bits(test));
  j["tests"] = std::move(tests);
  if (job.raw_outcomes) {
    obs::Json raw = obs::Json::array();
    for (std::size_t fi = 0; fi < result.outcomes.size(); ++fi) {
      const fault::FaultOutcome& o = result.outcomes[fi];
      const fault::Pattern* test =
          o.status == fault::FaultStatus::kDetected && o.has_test()
              ? &result.tests[o.test()]
              : nullptr;
      raw.push_back(encode_fault_outcome(fi, o, test));
    }
    j["raw"] = std::move(raw);
  }
  j["run_report"] = report.to_json();
  j["wall_seconds"] = job.timer.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::Json cluster = obs::Json::object();
    cluster["shards"] = static_cast<std::uint64_t>(job.shards_total);
    cluster["redispatched"] = job.redispatches;
    cluster["workers_alive"] = static_cast<std::uint64_t>(alive_);
    // Name any poison windows: the job completed DESPITE them (their
    // faults ran in-process), and the operator deserves to know which
    // fault range kept killing workers.
    obs::Json poison = obs::Json::array();
    for (const auto& [lo, hi] : job.poison_windows) {
      obs::Json window = obs::Json::array();
      window.push_back(static_cast<std::uint64_t>(lo));
      window.push_back(static_cast<std::uint64_t>(hi));
      poison.push_back(std::move(window));
    }
    cluster["poison_windows"] = std::move(poison);
    cluster["inprocess_faults"] = job.inprocess_faults;
    cluster["merge_solves"] = merge_solves;
    stats_.merge_solves += merge_solves;
    j["cluster"] = std::move(cluster);
  }
  j["registry"] = registry_.stats().to_json();
  return j;
}

}  // namespace cwatpg::svc
