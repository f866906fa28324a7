// Overload-safe solve daemon core (DESIGN.md §3h): a bounded admission
// queue in front of a pool of persistent worker Solvers sharing one
// content-addressed PlanCache, with per-request wall-clock deadlines,
// load shedding, a stuck-worker watchdog, and graceful drain.
//
// The request path is
//
//   submit_line  — parse (strict, capped) → typed bad_request on garbage;
//   admission    — draining? -> `draining`; queue full? -> shed with
//                  `overloaded`; else enqueue with deadline_at = now +
//                  budget (request's deadline_ms, else the server default);
//   dequeue      — a worker pops the oldest request; if its deadline
//                  expired while queued it is rejected with
//                  `deadline_expired` without touching a solver;
//   dispatch     — the *remaining* budget (deadline_at - now) propagates
//                  into SolveOptions::wall_budget_ms, so queue wait and
//                  solve time share one client-visible budget;
//   respond      — exactly-once per request (an atomic flag arbitrates
//                  between the worker and the watchdog; late results from
//                  a watchdogged worker are counted and dropped).
//
// The watchdog scans worker slots every min(100 ms, stuck_after_ms / 4)
// and fails any request served longer than stuck_after_ms with a typed
// `worker_stuck` response, so one wedged solve cannot hang the daemon or
// silently eat a client's timeout. The worker thread itself is not killed
// (there is no safe way to kill a thread mid-solve); it rejoins the pool
// when the stuck call eventually returns and its result is discarded.
//
// drain() — the SIGTERM / `shutdown` path — stops admission, rejects
// every queued-but-unstarted request with `draining`, then blocks until
// all in-flight requests completed. The Server outlives drain(): `stats`
// still answers (the stdio driver prints a final snapshot), and the
// destructor joins the now-idle workers.
//
// Thread-safety: the queue, in-flight count, and stop flag share one
// mutex (the condition variables' predicate state); counters are atomics;
// worker slots carry their own small mutexes so the watchdog never blocks
// behind a running solve; responses are serialized by the sink mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backend/plan_cache.hpp"
#include "runtime/solver.hpp"
#include "serve/latency.hpp"
#include "serve/protocol.hpp"

namespace nck::serve {

struct ServerOptions {
  /// Worker threads; 0 means hardware concurrency (at least 1).
  std::size_t num_workers = 2;
  /// Bounded admission-queue depth; a full queue sheds with `overloaded`.
  std::size_t queue_depth = 64;
  /// Base seed: every worker Solver shares it (and the one shared device,
  /// hence shared plan keys); each request re-seeds the
  /// sample stream from (seed, admission serial), so results are
  /// deterministic regardless of which worker serves a request.
  std::uint64_t seed = 1234;
  /// LRU byte budget of the shared plan cache.
  std::size_t cache_bytes = backend::PlanCache::kDefaultMaxBytes;
  /// Wall-clock budget applied to requests that name no deadline_ms.
  double default_deadline_ms = std::numeric_limits<double>::infinity();
  /// Watchdog hard cap on one request's service time (dispatch to
  /// response); infinity disables the watchdog. The watchdog scans every
  /// min(100 ms, stuck_after_ms / 4).
  double stuck_after_ms = 30000.0;
  AnnealBackendOptions annealer;
  QaoaOptions circuit;
  /// Per-worker solver resilience; nullopt keeps each Solver's default
  /// (which honors NCK_CHAOS=1).
  std::optional<ResilienceOptions> resilience;
  /// Test hook: runs on the worker thread after the dequeue deadline gate,
  /// before dispatch. Tests park workers here (on a latch, or a sleep) to
  /// provoke the overload, drain, and watchdog paths deterministically.
  std::function<void(const Request&)> test_stall;
};

/// Snapshot of the daemon gauges (the `stats` request payload).
struct ServerStats {
  std::size_t admitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;                  // overloaded rejections
  std::size_t rejected_bad_request = 0;
  std::size_t rejected_draining = 0;
  std::size_t rejected_deadline = 0;     // expired while queued
  std::size_t worker_stuck = 0;          // watchdog interventions
  std::size_t late_dropped = 0;          // results after a stuck response
  std::size_t decomposed = 0;            // solves whose decompose stage ran
  std::size_t queue_depth = 0;           // current
  std::size_t in_flight = 0;             // current
  bool draining = false;
  std::size_t workers = 0;
  std::size_t queue_capacity = 0;
  std::size_t latency_count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  backend::PlanCacheStats cache;
  double cache_hit_rate = 0.0;  // hits / (hits + misses), 0 when no lookups
};

class Server {
 public:
  /// Responses (one complete line each, no trailing newline) are pushed
  /// into `sink`, possibly from worker/watchdog threads concurrently; the
  /// Server serializes the calls, the sink just writes.
  using Sink = std::function<void(const std::string&)>;

  /// What the transport driver should do after a submit.
  enum class Submit { kContinue, kShutdown };

  Server(ServerOptions options, Sink sink);
  /// Force path: rejects anything still queued as `draining`, stops and
  /// joins the workers and the watchdog. Call drain() first for the
  /// graceful story.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses and admits one request line. Every call produces exactly one
  /// response through the sink, now (rejections, stats) or later (queued
  /// ops). Returns kShutdown after a `shutdown` request: admission is
  /// already closed, and the driver should stop reading and call drain().
  Submit submit_line(const std::string& line);

  /// Driver hook for an oversized line that was discarded while streaming
  /// (never fully buffered): counts a bad_request and emits the typed
  /// rejection through the serialized sink. `bytes` is how much arrived.
  void reject_oversized(std::size_t bytes);

  /// Stops admission, rejects queued-but-unstarted requests with
  /// `draining`, and blocks until every in-flight request has completed.
  /// Idempotent; concurrent callers all block until quiescence.
  void drain();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  ServerStats stats() const;
  /// The ServerStats snapshot as one JSON object (the `stats` payload).
  std::string stats_json() const;

  backend::PlanCache& plan_cache() noexcept { return *cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    Request req;
    std::string id;  // id_json(req), precomputed
    std::uint64_t serial = 0;
    Clock::time_point enqueued;
    Clock::time_point deadline_at;
    bool has_deadline = false;
    Clock::time_point started;  // set at dispatch, read by the watchdog
    /// Exactly-once response arbitration (worker vs. watchdog).
    std::atomic<bool> responded{false};
  };
  using JobPtr = std::shared_ptr<Job>;

  /// One per worker; the watchdog scans these. The slot mutex only guards
  /// the job pointer hand-off, never a running solve.
  struct Slot {
    std::mutex mutex;
    JobPtr job;
  };

  void worker_main(std::size_t slot_index);
  void watchdog_main();
  void process(Solver& solver, Slot& slot, const JobPtr& job);
  /// Op dispatch; returns the complete ok-response line. Throws on
  /// program parse errors (mapped to bad_request by process()).
  std::string dispatch(Solver& solver, const Job& job);
  std::string solve_payload(Solver& solver, const Job& job);

  /// True when this call won the exactly-once race and emitted `line`.
  bool respond_once(const JobPtr& job, const std::string& line);
  void emit(const std::string& line);
  /// Folds one request trace's counters into the daemon-level aggregate.
  void fold_counters(const obs::TraceData& trace);

  ServerOptions options_;
  Sink sink_;
  std::mutex sink_mutex_;

  std::shared_ptr<backend::PlanCache> cache_;

  // Queue state; the mutex also covers in_flight_ and stop_ because they
  // are predicate state of both condition variables.
  mutable std::mutex queue_mutex_;
  std::condition_variable work_cv_;   // queue became non-empty / stopping
  std::condition_variable idle_cv_;   // a request completed (drain waits)
  std::condition_variable stop_cv_;   // watchdog's private wakeup (so it
                                      // never consumes a worker's notify)
  std::deque<JobPtr> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> serial_{0};

  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> rejected_bad_request_{0};
  std::atomic<std::size_t> rejected_draining_{0};
  std::atomic<std::size_t> rejected_deadline_{0};
  std::atomic<std::size_t> worker_stuck_{0};
  std::atomic<std::size_t> late_dropped_{0};
  std::atomic<std::size_t> decomposed_{0};

  LatencyHistogram latency_;
  mutable std::mutex counters_mutex_;
  std::map<std::string, double> obs_counters_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace nck::serve
