// The sharded ATPG cluster coordinator: one cwatpg.rpc/1 front end over a
// pool of worker daemons, with deterministic merge and worker failover.
//
// A Cluster speaks exactly the protocol a single svc::Server does — same
// request kinds, same response shapes — so a client cannot tell (except by
// `status`) whether it is talking to one daemon or a fleet. What changes
// is the execution plan for a per-fault `run_atpg` job:
//
//   admit ─▶ shard the collapsed fault-id space into contiguous
//            [k·S, (k+1)·S) windows ─▶ dispatch windows to workers
//            (`fault_range` + `raw_outcomes`; each window drops by
//            simulation with its own tests when the job does) ─▶ ingest
//            per-fault records ─▶ REPLAY the single-node pipeline over
//            the records ─▶ one terminal response.
//
// Determinism argument (see ARCHITECTURE.md): per-fault classification is
// a pure function of (circuit, fault, solver options) and random-phase
// drops are per-fault independent, so workers can solve any window
// speculatively, and a window's records are a pure function of (circuit,
// options, window). The coordinator then re-runs the exact serial TEGUS
// pipeline — same seed, same work-list order, same drop-by-simulation and
// escalation bookkeeping — with a SolveProvider that returns recorded
// outcomes instead of invoking a solver. The rare fault the global order
// reaches but its window dropped (the dropping test was never committed
// globally) is solved by the merge itself, in-process. Which worker solved
// what, and in which order replies arrived, cannot leak into the result:
// the merged classification, test set and test attribution are identical
// to a single-node run by construction.
//
// Failover and supervision: a worker that dies or wedges (heartbeats — a
// bounded `status` probe on idle workers — turn a wedge into the same
// EOF-shaped signal) forfeits its un-acked shard to a survivor, and the
// SLOT is respawned under exponential backoff with a generation counter:
// its endpoint's respawn factory re-forks the child or re-dials the
// remote daemon, and the new generation lazily re-replicates circuits by
// content hash exactly like a first load. A crash-looping slot (≥ N
// respawn events in a sliding window) is quarantined loudly instead of
// spinning. A shard window that killed two worker generations is POISON:
// it is never dispatched a third time whole — it is bisected to isolate
// the offending fault range, and the residual window is executed
// in-process by the coordinator through the identical params→options
// mapping and wire codec, so its records — and therefore the
// ReplayProvider merge — are byte-identical to what a worker would have
// produced, and the job completes with the poison window named in the
// response instead of failing. First-ingest-wins per fault index makes
// redispatch safe against the original reply racing in late: no fault is
// lost, none is double-counted. Health, generations and redispatch
// counts surface through `status` and the cluster.* / cluster.supervisor.*
// metrics; benign shard failures (dropped dispatch, truncated reply)
// still fail the job after one redispatch — something is wrong with the
// work, not the worker.
//
// Jobs whose per-fault outcomes are NOT independent of solver-call history
// (engine "incremental") and `fsim` jobs are forwarded whole to one
// worker rather than sharded.
//
// Thread-safe: serve() is the single-owner entry point; one worker thread
// per endpoint plus the reader synchronize on one coordinator mutex.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/client.hpp"
#include "svc/proto.hpp"
#include "svc/registry.hpp"
#include "svc/supervisor.hpp"
#include "svc/transport.hpp"
#include "util/budget.hpp"
#include "util/timer.hpp"

namespace cwatpg::svc {

struct ClusterOptions {
  /// Collapsed-fault ids per shard. Small shards spread load and shrink
  /// the redispatch unit; large shards amortize per-request overhead.
  std::size_t shard_size = 512;
  /// Per-shard worker deadline (seconds; 0 = none). A wedged worker then
  /// self-reports `interrupted` instead of holding its shard forever.
  double shard_deadline_seconds = 0.0;
  /// Job deadline applied when the request carries none (0 = unlimited);
  /// mirrors ServerOptions::default_deadline_seconds.
  double default_deadline_seconds = 0.0;
  /// Coordinator-side circuit registry budget (it keeps its own parsed
  /// copy of every circuit: the collapsed fault list is the shard space).
  std::size_t registry_bytes = std::size_t(256) << 20;
  /// Retry/backoff policy for the per-worker clients (reused from the
  /// single-daemon resilience layer).
  ClientOptions client;
  /// Worker respawn/heartbeat/quarantine policy (the self-healing layer;
  /// only endpoints carrying a respawn factory are ever respawned).
  SupervisorOptions supervisor;
};

struct ClusterStats {
  std::size_t workers = 0;         ///< configured worker endpoints
  std::size_t alive = 0;           ///< endpoints currently serving
  std::size_t respawning = 0;      ///< slots between generations
  std::size_t quarantined = 0;     ///< slots retired as crash loops
  std::uint64_t shards_dispatched = 0;
  std::uint64_t redispatched = 0;  ///< shards re-dispatched after a failure
  std::uint64_t worker_deaths = 0;
  std::uint64_t respawns = 0;      ///< successful worker respawns
  std::uint64_t heartbeat_failures = 0;
  std::uint64_t poison_windows = 0;   ///< windows executed in-process
  std::uint64_t inprocess_faults = 0; ///< poison-window faults run here
  /// Faults the merge solved itself: a worker dropped them with a test
  /// of its own window that the global order never committed, or their
  /// escalated record lacks the main-pass abort the merged result keeps.
  std::uint64_t merge_solves = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
};

class Cluster {
 public:
  /// One worker endpoint the cluster owns. `pid` is the current
  /// generation's process (surfaced through `status` so an operator — or
  /// the kill-drill smoke test — can target a worker process, and reaped
  /// by the supervisor at death detection); 0 for in-process and remote
  /// workers.
  struct WorkerEndpoint {
    /// What a respawn factory hands back: the next generation's
    /// connection (a re-forked child's pipes, a re-dialed socket).
    struct Respawned {
      std::unique_ptr<Transport> transport;
      std::int64_t pid = 0;
    };

    std::unique_ptr<Transport> transport;
    std::string name;
    std::int64_t pid = 0;
    /// Re-creates the endpoint's connection after a death. Called from
    /// the slot's own worker thread, outside the coordinator lock; may
    /// throw (counts as a failed respawn attempt, retried under backoff).
    /// Unset ⇒ the slot is not self-healing: a death shrinks the pool
    /// permanently (the pre-supervision behavior). The embedder injects
    /// this because the svc layer cannot dial TCP itself (net links svc,
    /// never the reverse).
    std::function<Respawned()> respawn;
  };

  Cluster(std::vector<WorkerEndpoint> workers, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Serves `transport` until a `shutdown` request completes its drain or
  /// the peer closes the stream. Same contract as Server::serve.
  void serve(Transport& transport);

  ClusterStats stats() const;

 private:
  struct JobContext;

  /// One contiguous fault-id window of one job, queued for dispatch.
  /// A forwarded (non-sharded) job travels as a single whole-job shard.
  struct Shard {
    std::shared_ptr<JobContext> job;
    std::size_t lo = 0;
    std::size_t hi = 0;
    int attempt = 0;  ///< benign failures: 0 = first dispatch, 1 = retry
    /// Worker generations this exact window killed. Two deaths make the
    /// window poison: bisect, or execute the residual in-process.
    int deaths = 0;
  };

  struct WorkerState {
    WorkerEndpoint endpoint;
    std::thread thread;
    bool alive = true;        ///< guarded by mutex_
    bool respawning = false;  ///< dead, but its supervisor is reviving it
    SlotSupervisor supervisor;  ///< guarded by mutex_
    /// Cumulative across generations: a slot's history survives every
    /// respawn (`status` reports per-slot totals plus the generation).
    std::uint64_t shards_completed = 0;
    std::uint64_t redispatches_caused = 0;
    std::uint64_t inflight_worker_id = 0;  ///< worker-side request id, 0=idle
    std::uint64_t inflight_job = 0;        ///< coordinator job id, 0=idle
    std::unordered_set<std::string> loaded;  ///< circuit keys replicated
  };

  enum class Pop { kShard, kIdle, kClosed };

  // -- reader side --
  void handle_load_circuit(const Request& req);
  void handle_status(const Request& req);
  void handle_cancel(const Request& req);
  void admit_job(const Request& req);

  // -- worker side --
  void worker_loop(WorkerState& w);
  /// Serves one connection generation of `w` until death or queue close.
  /// Returns true on a clean queue close (drain), false on worker death
  /// (on_worker_death already ran; the caller decides respawn).
  bool serve_generation(WorkerState& w);
  /// Backoff-sleeps and calls the slot's respawn factory until a new
  /// generation is live (true) or the slot quarantines / the queue closes
  /// (false — the caller's thread exits).
  bool await_respawn(WorkerState& w);
  /// Idle-tick health probe: a bounded `status` call. False ⇒ the worker
  /// is wedged and must take the death path.
  bool heartbeat(WorkerState& w, Client& client);
  /// Reaps the slot's current child process, if any (prompt zombie
  /// collection at death detection). Returns the exit description for
  /// `status` `last_exit` ("signal 9", "exit 127", "eof" when there is no
  /// process to reap).
  std::string reap_slot(WorkerState& w, bool kill_first);
  /// Runs one shard on `w`. Returns false when the worker is dead (the
  /// caller runs on_worker_death).
  bool run_shard(WorkerState& w, Client& client, Shard& shard);
  /// Re-queues `shard` after a BENIGN failure (or fails its job when the
  /// one-redispatch budget is spent). `cause` names the failure.
  void redispatch(WorkerState& w, Shard& shard, const std::string& cause);
  void on_worker_death(WorkerState& w, Shard& shard);
  /// A worker died holding `shard`: re-queue it, or — after a second
  /// death — route it through poison-shard quarantine.
  void forfeit_shard(WorkerState& w, Shard& shard);
  /// Poison window: bisect to isolate the offending fault range, or (at
  /// width 1 / the residual window) execute it in-process.
  void quarantine_shard(WorkerState& w, Shard& shard);
  /// Executes [lo, hi) on the coordinator itself, through the same
  /// params→options mapping and wire codec a worker applies, and accounts
  /// the records into the job.
  void run_window_inprocess(const std::shared_ptr<JobContext>& job,
                            std::size_t lo, std::size_t hi);
  /// Fails every non-terminal job; fired when the last live-or-reviving
  /// worker is gone.
  void fail_all_jobs(const std::string& why);
  /// Ingests one shard reply's records; returns false when the reply is
  /// incomplete (caller redispatches).
  bool ingest_reply(Shard& shard, const obs::Json& result, bool partial_ok);

  // -- job lifecycle --
  /// Blocks for the next dispatchable shard. `idle_timeout_seconds` > 0
  /// bounds the wait (kIdle on expiry — the heartbeat tick).
  Pop pop_shard(Shard& out, double idle_timeout_seconds);
  void finish_sharded_job(const std::shared_ptr<JobContext>& job);
  void fail_job(const std::shared_ptr<JobContext>& job, ErrorCode code,
                const std::string& message);
  /// Sends the terminal exactly once; returns false if one was already
  /// sent. Also drops the job's still-queued shards.
  bool claim_terminal(const std::shared_ptr<JobContext>& job);
  void send_terminal(const std::shared_ptr<JobContext>& job,
                     obs::Json response);
  obs::Json merge_records(JobContext& job);
  obs::Json cluster_status_json();
  /// Writes an out-of-band (id 0) cancel for whatever worker-side job is
  /// in flight for coordinator job `job_id` on any worker.
  void fan_out_cancel_locked(std::uint64_t job_id);

  ClusterOptions options_;
  CircuitRegistry registry_;
  /// Bench text by content-hash key, for replication to workers. Kept
  /// independently of the registry's LRU: a worker may need the text for
  /// as long as any job references the circuit.
  std::unordered_map<std::string, std::string> bench_texts_;
  obs::MetricsRegistry metrics_;

  Transport* transport_ = nullptr;  ///< valid during serve()

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< dispatch queue not-empty / closed
  std::condition_variable drain_cv_;  ///< a job reached its terminal
  std::deque<Shard> queue_;           ///< guarded by mutex_
  bool queue_closed_ = false;
  bool shutting_down_ = false;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::size_t alive_ = 0;
  /// Slots whose supervisor is between generations (dead but reviving).
  /// They count as capacity: admission and the all-dead sweep treat
  /// alive_ + respawning_ == 0 as "the cluster is gone".
  std::size_t respawning_ = 0;
  /// Live jobs only: the entry is released with the terminal response.
  std::unordered_map<std::uint64_t, std::shared_ptr<JobContext>> jobs_;
  /// Recently-terminated job ids (bounded FIFO history) so status/cancel
  /// still answer "done" after the JobContext is gone.
  std::unordered_set<std::uint64_t> done_jobs_;
  std::deque<std::uint64_t> done_order_;
  std::size_t active_jobs_ = 0;
  ClusterStats stats_;
};

}  // namespace cwatpg::svc
