#include "serve/server.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "anneal/topology.hpp"
#include "circuit/coupling.hpp"
#include "core/parse.hpp"
#include "obs/json.hpp"
#include "util/rng.hpp"

namespace nck::serve {
namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string json_number(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";  // not expected
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string assignment_json(const Env& env, const std::vector<bool>& bits) {
  std::string out = "{";
  for (std::size_t v = 0; v < bits.size() && v < env.num_vars(); ++v) {
    if (v) out += ",";
    out += "\"" + json_escape(env.var_name(static_cast<VarId>(v))) + "\":" +
           (bits[v] ? "true" : "false");
  }
  out += "}";
  return out;
}

}  // namespace

Server::Server(ServerOptions options, Sink sink)
    : options_(std::move(options)),
      sink_(std::move(sink)),
      cache_(std::make_shared<backend::PlanCache>(options_.cache_bytes)) {
  if (options_.num_workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_workers = hw ? hw : 1;
  }
  if (options_.queue_depth == 0) options_.queue_depth = 1;

  slots_.reserve(options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    slots_.push_back(std::make_unique<Slot>());
  }
  for (std::size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
  if (std::isfinite(options_.stuck_after_ms)) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

Server::~Server() {
  std::vector<JobPtr> dropped;
  {
    std::lock_guard lock(queue_mutex_);
    draining_.store(true, std::memory_order_relaxed);
    dropped.assign(queue_.begin(), queue_.end());
    queue_.clear();
    stop_ = true;
  }
  for (const JobPtr& job : dropped) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    respond_once(job, error_response(job->id, op_name(job->req.op),
                                     WireError::kDraining,
                                     "daemon stopped before the request "
                                     "was started"));
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  stop_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

Server::Submit Server::submit_line(const std::string& line) {
  Request req;
  std::string why;
  if (!parse_request(line, req, why)) {
    rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
    // Best-effort id echo: parse_request fills fields left-to-right, so an
    // id that appeared before the failure still correlates the rejection.
    emit(error_response(id_json(req), "invalid", WireError::kBadRequest, why));
    return Submit::kContinue;
  }

  if (req.op == Op::kStats) {
    // Answered inline, even while draining — the drain story depends on
    // being able to observe the daemon on its way out.
    emit(ok_response(id_json(req), "stats", ",\"stats\":" + stats_json()));
    return Submit::kContinue;
  }
  if (req.op == Op::kShutdown) {
    draining_.store(true, std::memory_order_relaxed);
    emit(ok_response(id_json(req), "shutdown", ",\"draining\":true"));
    return Submit::kShutdown;
  }

  if (draining_.load(std::memory_order_relaxed)) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    emit(error_response(id_json(req), op_name(req.op), WireError::kDraining,
                        "daemon is draining and no longer admits requests"));
    return Submit::kContinue;
  }

  auto job = std::make_shared<Job>();
  job->req = std::move(req);
  job->id = id_json(job->req);
  job->serial = serial_.fetch_add(1, std::memory_order_relaxed);
  job->enqueued = Clock::now();
  const double budget = std::isfinite(job->req.deadline_ms)
                            ? job->req.deadline_ms
                            : options_.default_deadline_ms;
  if (std::isfinite(budget)) {
    job->has_deadline = true;
    job->deadline_at =
        job->enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(std::max(budget, 0.0)));
  }

  {
    std::lock_guard lock(queue_mutex_);
    if (queue_.size() >= options_.queue_depth) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      emit(error_response(
          job->id, op_name(job->req.op), WireError::kOverloaded,
          "admission queue full (depth " +
              std::to_string(options_.queue_depth) + "); load shed"));
      return Submit::kContinue;
    }
    queue_.push_back(std::move(job));
    admitted_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_one();
  return Submit::kContinue;
}

void Server::reject_oversized(std::size_t bytes) {
  rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
  emit(error_response("null", "invalid", WireError::kBadRequest,
                      "request line exceeds the " +
                          std::to_string(kMaxRequestBytes) + "-byte cap (" +
                          std::to_string(bytes) + " bytes discarded)"));
}

void Server::drain() {
  draining_.store(true, std::memory_order_relaxed);
  std::vector<JobPtr> dropped;
  {
    std::lock_guard lock(queue_mutex_);
    dropped.assign(queue_.begin(), queue_.end());
    queue_.clear();
  }
  for (const JobPtr& job : dropped) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    respond_once(job, error_response(job->id, op_name(job->req.op),
                                     WireError::kDraining,
                                     "daemon is draining; the request was "
                                     "queued but never started"));
  }
  std::unique_lock lock(queue_mutex_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void Server::worker_main(std::size_t slot_index) {
  Solver solver(options_.seed);
  solver.set_plan_cache(cache_);
  for (;;) {
    JobPtr job;
    {
      std::unique_lock lock(queue_mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;  // same critical section as the pop: drain's predicate
                     // (queue empty && nothing in flight) never misses us
    }
    process(solver, *slots_[slot_index], job);
    // The request has been answered (by this worker or the watchdog); a Z3
    // session it built would otherwise stay resident for the worker's life
    // although later requests hit the synthesis cache. Its teardown runs
    // here, off the response path, and glibc gets the freed pages back.
    if (solver.engine().release_sessions()) malloc_trim(0);
    {
      std::lock_guard lock(queue_mutex_);
      --in_flight_;
    }
    idle_cv_.notify_all();
  }
}

void Server::process(Solver& solver, Slot& slot, const JobPtr& job) {
  const auto dispatched = Clock::now();
  if (job->has_deadline && dispatched >= job->deadline_at) {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
    respond_once(
        job, error_response(
                 job->id, op_name(job->req.op), WireError::kDeadlineExpired,
                 "deadline expired after " +
                     std::to_string(ms_between(job->enqueued, dispatched)) +
                     " ms in the queue; the request was never started"));
    return;
  }

  job->started = dispatched;
  {
    std::lock_guard lock(slot.mutex);
    slot.job = job;
  }
  if (options_.test_stall) options_.test_stall(job->req);

  std::string response;
  try {
    response = dispatch(solver, *job);
  } catch (const std::exception& e) {
    // Program parse errors (and anything else an op throws) are the
    // client's fault at this protocol layer: typed bad_request, worker
    // survives.
    response = error_response(job->id, op_name(job->req.op),
                              WireError::kBadRequest, e.what());
  }

  {
    std::lock_guard lock(slot.mutex);
    slot.job = nullptr;
  }
  const auto finished = Clock::now();
  if (!job->responded.exchange(true, std::memory_order_acq_rel)) {
    // Count before emitting: a client that acts on the response must
    // never read a stale `completed` gauge.
    completed_.fetch_add(1, std::memory_order_relaxed);
    latency_.observe(ms_between(job->enqueued, finished));
    emit(response);
  } else {
    // The watchdog already failed this request; the late result is
    // dropped (the client must see exactly one response per request).
    late_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string Server::dispatch(Solver& solver, const Job& job) {
  switch (job.req.op) {
    case Op::kSolve:
      return ok_response(job.id, "solve", solve_payload(solver, job));
    case Op::kLint: {
      const Env env = parse_program(job.req.program);
      // The nck_cli `lint --target=all` targets.
      AnalysisTarget hw;
      hw.annealer = &shared_advantage_4_1();
      hw.coupling = &shared_brooklyn_coupling();
      const AnalysisReport report =
          solver.analyzer().analyze(env, solver.engine(), hw);
      return ok_response(job.id, "lint", ",\"report\":" + report.to_json());
    }
    case Op::kCertify: {
      const LintedCertificate out =
          lint_and_certify(parse_program(job.req.program), solver.engine());
      return ok_response(job.id, "certify",
                         ",\"certificate\":" + out.certificate.to_json() +
                             ",\"report\":" + out.report.to_json());
    }
    case Op::kSimplify: {
      const Env env = parse_program(job.req.program);
      const ReduceResult result = reduce_program(env);
      const PresolveSummary summary =
          summarize_reduction(env, result, verify_reduction(env, result));
      std::string payload =
          ",\"simplify\":{\"changed\":" +
          std::string(result.changed() ? "true" : "false") +
          ",\"proved_unsat\":" + (result.proved_unsat ? "true" : "false") +
          ",\"verified\":" + (summary.verified ? "true" : "false") +
          ",\"rejected\":" + (summary.rejected ? "true" : "false") +
          ",\"original_vars\":" + std::to_string(summary.original_vars) +
          ",\"reduced_vars\":" + std::to_string(summary.reduced_vars) +
          ",\"original_constraints\":" +
          std::to_string(summary.original_constraints) +
          ",\"reduced_constraints\":" +
          std::to_string(summary.reduced_constraints) +
          ",\"steps\":" + std::to_string(result.steps.size()) +
          ",\"reduced_program\":\"" +
          json_escape(result.proved_unsat ? std::string()
                                          : result.reduced.to_string()) +
          "\"}";
      return ok_response(job.id, "simplify", payload);
    }
    case Op::kStats:
    case Op::kShutdown:
      break;  // handled inline by submit_line; unreachable here
  }
  throw std::logic_error("dispatch: non-queue op");
}

std::string Server::solve_payload(Solver& solver, const Job& job) {
  const Env env = parse_program(job.req.program);

  // The SolverPool idiom (util/rng stream_seed): every worker Solver shares
  // one base seed (and the one shared device, so identical plan keys), and
  // each request gets a schedule-independent sample stream derived from its
  // admission serial, so responses do not depend on which worker happened
  // to pick the request up.
  solver.reseed(stream_seed(options_.seed, job.serial));
  solver.annealer_options() = options_.annealer;
  solver.circuit_options() = options_.circuit;
  if (options_.resilience) solver.resilience_options() = *options_.resilience;
  if (job.req.reads) solver.annealer_options().sampler.num_reads = job.req.reads;
  if (job.req.shots) solver.circuit_options().shots = job.req.shots;

  // Per-request decomposition: reset first — worker Solvers are reused, so
  // a previous request's knobs must not leak into this one. As with
  // nck_cli's flags, either size key implies "decompose": true.
  auto& split = solver.solve_options().decompose;
  split = decompose::DecomposeOptions{};
  split.enabled = job.req.decompose || job.req.subproblem_vars != 0 ||
                  job.req.max_rounds != 0;
  if (job.req.subproblem_vars) split.subproblem_vars = job.req.subproblem_vars;
  if (job.req.max_rounds) split.max_rounds = job.req.max_rounds;

  // Deadline recompute: whatever the queue wait left of the admission
  // budget is the solver's wall budget. A budget that ran out between the
  // dequeue gate and here simply fails fast inside solve() with the typed
  // kDeadlineExhausted (still ok:true — the daemon did its job).
  double remaining = std::numeric_limits<double>::infinity();
  if (job.has_deadline) {
    remaining = ms_between(Clock::now(), job.deadline_at);
  }
  solver.solve_options().wall_budget_ms = remaining;

  const SolveReport report = solver.solve(env, job.req.backend);
  fold_counters(report.trace);

  std::string payload = ",\"result\":{";
  payload += "\"ran\":" + std::string(report.ran ? "true" : "false");
  payload += ",\"backend\":\"" + std::string(backend_name(report.backend)) +
             "\"";
  payload += ",\"failure\":\"" +
             std::string(failure_kind_name(report.failure)) + "\"";
  if (!report.ran) {
    payload +=
        ",\"failure_detail\":\"" + json_escape(report.failure_message()) +
        "\"";
  }
  if (report.ran) {
    payload += ",\"quality\":\"" +
               std::string(quality_name(report.best_quality)) + "\"";
    payload += ",\"assignment\":" +
               assignment_json(env, report.best_assignment);
  }
  payload += ",\"samples\":{\"optimal\":" +
             std::to_string(report.counts.optimal) +
             ",\"suboptimal\":" + std::to_string(report.counts.suboptimal) +
             ",\"incorrect\":" + std::to_string(report.counts.incorrect) +
             ",\"total\":" + std::to_string(report.counts.total()) + "}";
  payload += ",\"qubits\":" + std::to_string(report.qubits_used);
  if (report.decompose) {
    const auto& d = *report.decompose;
    decomposed_.fetch_add(1, std::memory_order_relaxed);
    payload += ",\"decompose\":{\"subproblems\":" +
               std::to_string(d.subproblems) +
               ",\"rounds\":" + std::to_string(d.rounds) +
               ",\"converged\":" + (d.converged ? "true" : "false") +
               ",\"truth_exact\":" + (d.truth_exact ? "true" : "false") + "}";
  }
  payload += ",\"queue_ms\":" +
             json_number(ms_between(job.enqueued, job.started));
  payload += ",\"wall_ms\":" +
             json_number(ms_between(job.started, Clock::now()));
  payload += "}";
  if (job.req.trace) {
    payload += ",\"trace\":" + obs::trace_to_json(report.trace);
  }
  return payload;
}

void Server::watchdog_main() {
  // Scan at least four times per service cap, and at most every 100 ms.
  const auto interval = std::chrono::duration<double, std::milli>(
      std::min(100.0, options_.stuck_after_ms / 4.0));
  std::unique_lock lock(queue_mutex_);
  for (;;) {
    stop_cv_.wait_for(
        lock, std::chrono::duration_cast<Clock::duration>(interval),
        [&] { return stop_; });
    if (stop_) return;
    lock.unlock();
    const auto now = Clock::now();
    for (const std::unique_ptr<Slot>& slot : slots_) {
      JobPtr job;
      {
        std::lock_guard slot_lock(slot->mutex);
        job = slot->job;
      }
      if (!job || job->responded.load(std::memory_order_acquire)) continue;
      const double busy_ms = ms_between(job->started, now);
      if (busy_ms < options_.stuck_after_ms) continue;
      if (!job->responded.exchange(true, std::memory_order_acq_rel)) {
        // Count before emitting, like the completion path: the typed
        // worker_stuck response must never race ahead of the gauge.
        worker_stuck_.fetch_add(1, std::memory_order_relaxed);
        emit(error_response(job->id, op_name(job->req.op),
                            WireError::kWorkerStuck,
                            "worker exceeded the " +
                                std::to_string(options_.stuck_after_ms) +
                                " ms service cap (busy " +
                                std::to_string(busy_ms) + " ms)"));
      }
    }
    lock.lock();
  }
}

bool Server::respond_once(const JobPtr& job, const std::string& line) {
  if (job->responded.exchange(true, std::memory_order_acq_rel)) return false;
  emit(line);
  return true;
}

void Server::emit(const std::string& line) {
  std::lock_guard lock(sink_mutex_);
  sink_(line);
}

void Server::fold_counters(const obs::TraceData& trace) {
  std::lock_guard lock(counters_mutex_);
  for (const auto& [name, value] : trace.counters) {
    obs_counters_[name] += value;
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected_bad_request = rejected_bad_request_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  s.worker_stuck = worker_stuck_.load(std::memory_order_relaxed);
  s.late_dropped = late_dropped_.load(std::memory_order_relaxed);
  s.decomposed = decomposed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(queue_mutex_);
    s.queue_depth = queue_.size();
    s.in_flight = in_flight_;
  }
  s.draining = draining_.load(std::memory_order_relaxed);
  s.workers = options_.num_workers;
  s.queue_capacity = options_.queue_depth;
  s.latency_count = latency_.count();
  s.p50_ms = latency_.quantile(0.50);
  s.p99_ms = latency_.quantile(0.99);
  s.mean_ms = latency_.mean();
  s.max_ms = latency_.max();
  s.cache = cache_->stats();
  const std::size_t lookups = s.cache.hits + s.cache.misses;
  s.cache_hit_rate =
      lookups ? static_cast<double>(s.cache.hits) / static_cast<double>(lookups)
              : 0.0;
  return s;
}

std::string Server::stats_json() const {
  const ServerStats s = stats();
  std::string out = "{";
  out += "\"admitted\":" + std::to_string(s.admitted);
  out += ",\"completed\":" + std::to_string(s.completed);
  out += ",\"shed\":" + std::to_string(s.shed);
  out += ",\"rejected_bad_request\":" + std::to_string(s.rejected_bad_request);
  out += ",\"rejected_draining\":" + std::to_string(s.rejected_draining);
  out += ",\"rejected_deadline\":" + std::to_string(s.rejected_deadline);
  out += ",\"worker_stuck\":" + std::to_string(s.worker_stuck);
  out += ",\"late_dropped\":" + std::to_string(s.late_dropped);
  out += ",\"decomposed\":" + std::to_string(s.decomposed);
  out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
  out += ",\"in_flight\":" + std::to_string(s.in_flight);
  out += ",\"draining\":" + std::string(s.draining ? "true" : "false");
  out += ",\"workers\":" + std::to_string(s.workers);
  out += ",\"queue_capacity\":" + std::to_string(s.queue_capacity);
  out += ",\"latency_ms\":{\"count\":" + std::to_string(s.latency_count) +
         ",\"p50\":" + json_number(s.p50_ms) +
         ",\"p99\":" + json_number(s.p99_ms) +
         ",\"mean\":" + json_number(s.mean_ms) +
         ",\"max\":" + json_number(s.max_ms) + "}";
  out += ",\"cache\":{\"hits\":" + std::to_string(s.cache.hits) +
         ",\"misses\":" + std::to_string(s.cache.misses) +
         ",\"inserts\":" + std::to_string(s.cache.inserts) +
         ",\"evictions\":" + std::to_string(s.cache.evictions) +
         ",\"entries\":" + std::to_string(s.cache.entries) +
         ",\"bytes\":" + std::to_string(s.cache.bytes) +
         ",\"hit_rate\":" + json_number(s.cache_hit_rate) + "}";
  out += ",\"counters\":{";
  {
    std::lock_guard lock(counters_mutex_);
    bool first = true;
    for (const auto& [name, value] : obs_counters_) {
      if (!first) out += ",";
      first = false;
      out += "\"" + json_escape(name) + "\":" + json_number(value);
    }
  }
  out += "}}";
  return out;
}

}  // namespace nck::serve
