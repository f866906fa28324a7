// serve_warm: an in-process serve::Server replays the example corpus, 70%
// annealer solves, 15% lint, 15% simplify. After the set-up pass every
// solve hits the plan cache, so the request path is pure per-request fixed
// cost (device facts, plan key, analyze, sample). Capacity and the
// end-to-end latencies come from a closed loop with one outstanding request
// per worker; an open loop at a fixed offered rate, timed from when each
// request was due, gives the per-layer queue, service and open-loop
// latency figures.
#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/parse.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using nck::serve::Server;

/// Largest corpus program served: the oracle enumerates every assignment.
/// set_cover_large.nck (203 variables) is decompose_large's input instead.
constexpr std::size_t kMaxCorpusVars = 24;
/// Open-loop offered rate: a constant, so a faster server shows as lower
/// latency at the same load instead of as a different load; about half the
/// seed commit's closed-loop capacity on a 4-core x86-64 host (4 workers of
/// 1 OpenMP thread each), which ranged from 420 to 1 350 rps as CPU steal
/// on the shared host came and went.
constexpr double kOfferedRps = 400.0;
/// Capacity windows; latency windows hold this many due requests each, so
/// a window's p99 has ten samples beyond it.
constexpr double kCapacityWindowS = 2.5;
constexpr double kLatencyWindowRequests = 1000;
/// Annealer reads per solve request: a small sample budget, so the request
/// path's fixed costs are as visible as the sampling kernel.
constexpr std::size_t kReads = 10;
/// Closed-loop requests covered by the determinism digest.
constexpr std::size_t kDigestRequests = 200;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 5;

/// A measured phase cut into equal windows of at least `min_window_s`.
/// Figures are taken per window and reported as the median over windows,
/// so a burst of outside load on a shared host moves a figure by at most
/// one window's rank.
class Windows {
 public:
  Windows(Clock::time_point start, double seconds, double min_window_s)
      : start_(start),
        count_(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / min_window_s))),
        length_ms_(seconds * 1e3 / static_cast<double>(count_)) {}
  std::size_t count() const noexcept { return count_; }
  /// Length of one window, in seconds.
  double seconds() const noexcept { return length_ms_ / 1e3; }
  /// The window holding `t`, or count() when `t` lies outside the phase.
  std::size_t at(Clock::time_point t) const {
    const double ms = ms_between(start_, t);
    if (ms < 0) return count_;
    return std::min(count_, static_cast<std::size_t>(ms / length_ms_));
  }

 private:
  Clock::time_point start_;
  std::size_t count_ = 1;
  double length_ms_ = 0.0;
};

enum class Op { kSolve, kLint, kSimplify };
const char* op_name(Op op) {
  switch (op) {
    case Op::kSolve: return "solve";
    case Op::kLint: return "lint";
    case Op::kSimplify: return "simplify";
  }
  return "?";
}

enum class Phase { kSetup, kClosed, kClosedTraced, kOpen };

/// One submitted request, indexed by id - 1.
struct Sent {
  std::size_t program = 0;
  Op op = Op::kSolve;
  Phase phase = Phase::kSetup;
  Clock::time_point due;
  Clock::time_point submitted;
};

struct Received {
  std::uint64_t id = 0;
  std::string line;
  Clock::time_point at;
};

/// Collects raw response lines with their arrival time and tracks the
/// outstanding count. Parsing waits until the run ends, so checking never
/// slows the server; the Server serializes calls into the sink.
class Client {
 public:
  Server::Sink sink() {
    return [this](const std::string& line) { on_response(line); };
  }
  /// Counts a request as outstanding; call before submit_line.
  void expect() {
    std::lock_guard lock(mutex_);
    ++outstanding_;
  }
  void wait_below(std::size_t window) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < window; });
  }
  void wait_all() { wait_below(1); }
  std::vector<Received> take() {
    std::lock_guard lock(mutex_);
    return std::move(received_);
  }

 private:
  void on_response(const std::string& line) {
    Received r;
    r.at = Clock::now();
    // Every response opens with {"id":N.
    for (std::size_t i = 6; i < line.size() && line[i] >= '0' && line[i] <= '9';
         ++i) {
      r.id = r.id * 10 + static_cast<std::uint64_t>(line[i] - '0');
    }
    r.line = line;
    {
      std::lock_guard lock(mutex_);
      received_.push_back(std::move(r));
      --outstanding_;
    }
    cv_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
  std::vector<Received> received_;
};

/// Raw JSON value of `key` in a response generated by the server (a
/// trusted, compact format): a string with its quotes, a balanced
/// object, or a scalar. Empty when the key is absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  const std::size_t from = i;
  if (line[i] == '"') {
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\') ++i;
    }
    return line.substr(from, i + 1 - from);
  }
  if (line[i] == '{') {
    int depth = 0;
    bool in_string = false;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        return line.substr(from, i + 1 - from);
      }
    }
    return "";
  }
  while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
  return line.substr(from, i - from);
}

std::string unescape(const std::string& quoted) {
  std::string out;
  for (std::size_t i = 1; i + 1 < quoted.size(); ++i) {
    if (quoted[i] == '\\' && i + 2 < quoted.size()) {
      const char c = quoted[++i];
      out += c == 'n' ? '\n' : c == 't' ? '\t' : c == 'r' ? '\r' : c;
    } else {
      out += quoted[i];
    }
  }
  return out;
}

nck::Quality parse_quality(const std::string& quoted) {
  if (quoted == "\"optimal\"") return nck::Quality::kOptimal;
  if (quoted == "\"suboptimal\"") return nck::Quality::kSuboptimal;
  return nck::Quality::kIncorrect;
}

/// {"a":true,"b":false,...} onto the program's variable ids.
std::vector<bool> parse_assignment(const std::string& object,
                                   const nck::Env& env) {
  std::map<std::string, bool> by_name;
  std::size_t i = 0;
  while ((i = object.find('"', i)) != std::string::npos) {
    const std::size_t end = object.find('"', i + 1);
    const std::string name = object.substr(i + 1, end - i - 1);
    by_name[name] = object.compare(end + 2, 4, "true") == 0;
    i = object.find_first_of(",}", end);
  }
  std::vector<bool> out(env.num_vars(), false);
  if (by_name.size() != env.num_vars()) return {};
  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    const auto it = by_name.find(env.var_name(static_cast<nck::VarId>(v)));
    if (it == by_name.end()) return {};
    out[v] = it->second;
  }
  return out;
}

class Replay {
 public:
  Replay(const Config& config, std::vector<Program> corpus)
      : config_(config), corpus_(std::move(corpus)), mix_(config.seed) {}

  /// Builds a fresh server and serves every (program, op) pair once, so
  /// every plan, presolve and truth is cached. Returns the elapsed ms.
  double set_up() {
    server_.reset();  // retire the previous set-up's server, untimed
    // Hand its freed pages back, so the peak RSS is one server's, not an
    // accident of which allocator arenas the next server's threads get.
    malloc_trim(0);
    const auto start = Clock::now();
    nck::serve::ServerOptions options;
    options.num_workers = config_.workers;
    options.queue_depth = 4096;  // the open loop never sheds at its rate
    options.seed = config_.seed;
    server_ = std::make_unique<Server>(options, client_.sink());
    for (std::size_t p = 0; p < corpus_.size(); ++p) {
      for (const Op op : {Op::kSolve, Op::kLint, Op::kSimplify}) {
        client_.wait_below(config_.workers);
        submit(p, op, Phase::kSetup, false, Clock::now());
      }
    }
    client_.wait_all();
    return ms_since(start);
  }

  /// Keeps one request per worker outstanding for `seconds`. Returns the
  /// phase's windows; capacity is counted from response arrivals.
  Windows closed_loop(double seconds, Phase phase, bool trace) {
    const auto start = Clock::now();
    while (ms_since(start) < seconds * 1e3) {
      client_.wait_below(config_.workers);
      const auto [p, op] = draw();
      submit(p, op, phase, trace, Clock::now());
    }
    client_.wait_all();
    return Windows(start, seconds, kCapacityWindowS);
  }

  /// Submits at kOfferedRps for `seconds`, each request on its own
  /// schedule whether or not earlier ones finished.
  Windows open_loop(double seconds, bool trace) {
    const auto start = Clock::now();
    const auto interval = std::chrono::duration<double>(1.0 / kOfferedRps);
    for (std::size_t i = 0;; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   interval * static_cast<double>(i));
      if (ms_between(start, due) >= seconds * 1e3) break;
      std::this_thread::sleep_until(due);
      const auto [p, op] = draw();
      submit(p, op, Phase::kOpen, trace, due);
    }
    client_.wait_all();
    return Windows(start, seconds, kLatencyWindowRequests / kOfferedRps);
  }

  Server& server() { return *server_; }
  const std::vector<Program>& corpus() const { return corpus_; }
  const std::vector<Sent>& sent() const { return sent_; }
  std::vector<Received> take_responses() { return client_.take(); }

 private:
  std::pair<std::size_t, Op> draw() {
    const std::uint64_t u = mix_.below(100);
    const Op op = u < 70 ? Op::kSolve : u < 85 ? Op::kLint : Op::kSimplify;
    return {static_cast<std::size_t>(mix_.below(corpus_.size())), op};
  }

  void submit(std::size_t program, Op op, Phase phase, bool trace,
              Clock::time_point due) {
    const std::uint64_t id = sent_.size() + 1;
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                       op_name(op) + "\",\"program\":\"" +
                       nck::serve::json_escape(corpus_[program].text) + "\"";
    if (op == Op::kSolve) {
      line += ",\"backend\":\"annealer\",\"reads\":" + std::to_string(kReads);
      if (trace) line += ",\"trace\":true";
    }
    line += "}";
    sent_.push_back({program, op, phase, due, Clock::now()});
    client_.expect();
    server_->submit_line(line);
  }

  const Config& config_;
  std::vector<Program> corpus_;
  nck::Rng mix_;
  std::vector<Sent> sent_;
  Client client_;  // outlives server_, which calls into its sink
  std::unique_ptr<Server> server_;
};

}  // namespace

Outcome run_serve_warm(const Config& config) {
  Outcome out;
  Replay replay(config, load_corpus(config.corpus, kMaxCorpusVars));

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(replay.set_up());

  // 60% of the run is the closed loop (capacity and the end-to-end
  // latencies), 40% the open loop. Open-loop latency is a per-layer figure:
  // between requests the cores idle, and on a shared virtual machine the
  // wake-up delay under CPU steal swung its p50 by 40% and its p99 by 100%
  // across runs, against 5% for closed-loop latency. A traced run splits
  // the closed loop in two halves to price tracing itself.
  const double closed_s = config.seconds * (config.trace ? 0.3 : 0.6);
  const Windows closed = replay.closed_loop(closed_s, Phase::kClosed, false);
  const Windows traced =
      config.trace ? replay.closed_loop(closed_s, Phase::kClosedTraced, true)
                   : closed;
  const Windows open = replay.open_loop(config.seconds * 0.4, config.trace);
  const nck::serve::ServerStats stats = replay.server().stats();

  // Check and measure every response.
  const std::vector<Sent>& sent = replay.sent();
  const std::vector<Program>& corpus = replay.corpus();
  std::vector<Received> responses = replay.take_responses();
  std::sort(responses.begin(), responses.end(),
            [](const Received& a, const Received& b) { return a.id < b.id; });
  std::map<std::pair<std::size_t, Op>, std::string> first_payload;
  std::map<std::size_t, bool> reduced_feasible;
  std::vector<double> closed_done(closed.count()), traced_done(traced.count());
  std::vector<std::vector<double>> open_latency(open.count());
  std::vector<std::vector<double>> closed_latency(closed.count());
  std::vector<double> closed_solve_latency, lateness;
  std::vector<double> queue_ms, service_ms, overhead_ms;
  TraceFold fold;
  Digest determinism;
  std::size_t digested = 0;
  if (responses.size() != sent.size()) {
    out.check.op(false, "serve: " + std::to_string(sent.size()) +
                            " requests got " +
                            std::to_string(responses.size()) + " responses");
  }
  for (Received& r : responses) {
    if (r.id == 0 || r.id > sent.size()) {
      out.check.op(false, "serve: response with unknown id");
      continue;
    }
    const Sent& s = sent[r.id - 1];
    const Program& program = corpus[s.program];
    const std::string context = std::string("serve ") + op_name(s.op) + " " +
                                program.label + " #" + std::to_string(r.id);
    std::string trace_json;
    const std::size_t trace_at = r.line.find(",\"trace\":");
    if (trace_at != std::string::npos) {
      trace_json = r.line.substr(trace_at + 9, r.line.size() - trace_at - 10);
      r.line.resize(trace_at);
    }
    const double latency_from_submit = ms_between(s.submitted, r.at);
    if (s.phase == Phase::kClosed && closed.at(r.at) < closed.count()) {
      ++closed_done[closed.at(r.at)];
      closed_latency[closed.at(r.at)].push_back(latency_from_submit);
    }
    if (s.phase == Phase::kClosedTraced && traced.at(r.at) < traced.count()) {
      ++traced_done[traced.at(r.at)];
    }
    if (s.phase == Phase::kOpen && open.at(s.due) < open.count()) {
      open_latency[open.at(s.due)].push_back(ms_between(s.due, r.at));
      lateness.push_back(ms_between(s.due, s.submitted));
    }
    if (field(r.line, "ok") != "true") {
      out.check.op(false, context + ": " + r.line.substr(0, 200));
      continue;
    }

    std::string payload;
    if (s.op == Op::kSolve) {
      const std::string result = field(r.line, "result");
      const bool ran = field(result, "ran") == "true";
      const std::vector<bool> assignment =
          parse_assignment(field(result, "assignment"), program.env);
      out.check.solve(program, ran, assignment,
                      parse_quality(field(result, "quality")), nullptr,
                      context);
      Digest d;
      d.add(assignment);
      payload = d.hex();
      if (s.phase == Phase::kClosed) {
        closed_solve_latency.push_back(latency_from_submit);
      }
      if (s.phase == Phase::kOpen) {
        const double queued = std::stod(field(result, "queue_ms"));
        const double served = std::stod(field(result, "wall_ms"));
        queue_ms.push_back(queued);
        service_ms.push_back(served);
        overhead_ms.push_back(latency_from_submit - queued - served);
      }
      if (!trace_json.empty()) fold.add(nck::obs::trace_from_json(trace_json));
    } else {
      // Lint and simplify are deterministic in the program: every response
      // must repeat the first one. Simplify must also keep a feasible
      // program feasible (checked once per program by enumeration).
      payload = field(r.line, s.op == Op::kLint ? "report" : "simplify");
      bool ok = !payload.empty();
      const auto [it, first] =
          first_payload.emplace(std::make_pair(s.program, s.op), payload);
      ok = ok && it->second == payload;
      if (s.op == Op::kSimplify) {
        if (field(payload, "proved_unsat") != "false" ||
            field(payload, "rejected") != "false") {
          out.check.wrong_verdict(context + ": simplify rejected or refuted " +
                                  "a feasible program");
        }
        if (first) {
          const nck::Env reduced =
              nck::parse_program(unescape(field(payload, "reduced_program")));
          reduced_feasible[s.program] =
              reduced.num_vars() > kMaxCorpusVars ||
              exhaustive_truth(reduced).feasible;
        }
        if (!reduced_feasible[s.program]) {
          out.check.wrong_verdict(context + ": the reduced program is " +
                                  "infeasible");
        }
      }
      out.check.op(ok, context + ": output differs from the first response");
    }
    if (s.phase == Phase::kClosed && digested < kDigestRequests) {
      determinism.add(program.text);
      determinism.add(op_name(s.op));
      determinism.add(payload);
      ++digested;
    }
  }

  out.info["corpus_digest"] = texts_digest(corpus);
  out.info["corpus_programs"] = std::to_string(corpus.size());
  out.info["determinism_digest"] = determinism.hex();
  out.info["offered_rps"] = std::to_string(kOfferedRps);
  out.info["requests"] = std::to_string(sent.size());
  out.info["shed"] = std::to_string(stats.shed);

  // Capacity is completions per window; latencies are per-window
  // quantiles, timed from when each request was due. Each is the median
  // over the phase's windows.
  const auto per_window = [](const std::vector<double>& done,
                             const Windows& w) {
    std::vector<double> rates;
    for (const double n : done) rates.push_back(n / w.seconds());
    return median(std::move(rates));
  };
  const auto window_quantile = [](const std::vector<std::vector<double>>& w,
                                  double q) {
    std::vector<double> values;
    for (const std::vector<double>& l : w) values.push_back(quantile(l, q));
    return median(std::move(values));
  };
  const double capacity = per_window(closed_done, closed);

  Metrics& m = out.metrics;
  if (!config.trace) {
    m.set("setup_s", median(setups) / 1e3, "s");
    m.set("throughput_per_s", capacity, "1/s");
    m.set("latency_p50_ms", window_quantile(closed_latency, 0.50), "ms");
    m.set("latency_p99_ms", window_quantile(closed_latency, 0.99), "ms");
    m.set("time_to_solution_s", median(closed_solve_latency) / 1e3, "s");
    m.set("optimal_frac", out.check.optimal_frac(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  zero_layers(m);
  Probes probes;
  probes.parse = true;
  probe_layers(corpus, nck::BackendKind::kAnnealer, config.seed, probes, m);
  m.set("runtime.solve_self_ms", fold.self_ms("solve"), "ms");
  m.set("anneal.sample_ms", fold.span_ms("anneal.sample"), "ms");
  m.set("anneal.qubits", fold.gauge("embed.qubits_used"), "count");
  m.set("anneal.chain_break_frac", fold.gauge("anneal.chain_break_rate"),
        "ratio");
  const double patterns =
      static_cast<double>(stats.cache.synth_hits + stats.cache.synth_misses);
  m.set("synth.pattern_requests", patterns, "count");
  m.set("synth.pattern_hit_ratio",
        patterns > 0 ? static_cast<double>(stats.cache.synth_hits) / patterns
                     : 0.0,
        "ratio");
  const double lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);
  m.set("backend.plan_cache_lookups", lookups, "count");
  m.set("backend.plan_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0,
        "ratio");
  m.set("backend.plan_cache_bytes", static_cast<double>(stats.cache.bytes),
        "bytes");
  m.set("backend.plan_cache_evictions",
        static_cast<double>(stats.cache.evictions), "count");
  m.set("serve.queue_ms", mean(queue_ms), "ms");
  m.set("serve.service_ms", mean(service_ms), "ms");
  m.set("serve.overhead_ms", mean(overhead_ms), "ms");
  m.set("serve.generator_late_p99_ms", quantile(lateness, 0.99), "ms");
  m.set("serve.open_p50_ms", window_quantile(open_latency, 0.50), "ms");
  m.set("serve.open_p99_ms", window_quantile(open_latency, 0.99), "ms");
  m.set("obs.trace_overhead_frac",
        capacity > 0 ? 1.0 - per_window(traced_done, traced) / capacity : 0.0,
        "ratio");
  return out;
}

}  // namespace perfbench
