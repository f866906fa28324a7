// Traffic replay against the serve daemon (in-process Server, real worker
// pool): thousands of mixed requests seeded from the example programs,
// three phases with SLO-style verdicts CI can assert from BENCH_serve.json:
//
//   warm      closed-loop replay (window = worker count) of solve/lint/
//             simplify traffic over a small program set; after the first
//             round every solve hits the shared plan cache. Reports client
//             p50/p99/mean latency, throughput, cache hit rate, and the
//             measured per-request service time that calibrates the next
//             phases.
//
//   overload  open-loop traffic at 2x the measured capacity into a small
//             admission queue, 80% warm / 20% cold (cold = structural
//             program variants whose fingerprints miss the cache). The
//             daemon must shed (shed > 0) instead of queueing without
//             bound: the p99 of *completed* requests stays under
//             (queue_depth + workers) * warm_max * 4 (`p99_bounded`),
//             because a bounded queue bounds the waiting ahead of any
//             admitted request.
//
//   drain     paced background traffic with a mid-run drain() (the SIGTERM
//             path): every submitted request must get exactly one response
//             -- in-flight ones finish (ok), queued-but-unstarted ones are
//             rejected as `draining`, nothing is dropped (dropped == 0).
//
// Writes BENCH_serve.json (override with --out=<file>). --programs=<dir>
// points at the .nck seed corpus (default: examples/programs of the source
// tree the binary was built from); the bench refuses to run when a corpus
// program is missing. --requests=N scales all phases.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace nck;
using serve::Server;
using serve::ServerOptions;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

/// Closed/open-loop replay client: correlates responses to submissions by
/// id, tracks outstanding requests for windowed pacing, and classifies
/// outcomes by the typed wire error kind.
class Client {
 public:
  Server::Sink sink() {
    return [this](const std::string& line) { on_response(line); };
  }

  /// Must be called before submit_line (rejections respond synchronously).
  void note_submit(std::uint64_t id) {
    std::lock_guard lock(mutex_);
    pending_[id] = Clock::now();
    ++outstanding_;
    ++submitted_;
  }

  void wait_below(std::size_t window) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < window; });
  }

  void wait_all() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  std::size_t submitted() const {
    std::lock_guard lock(mutex_);
    return submitted_;
  }
  std::size_t responses() const {
    std::lock_guard lock(mutex_);
    return responses_;
  }
  std::size_t ok() const {
    std::lock_guard lock(mutex_);
    return ok_;
  }
  std::size_t errors(const std::string& kind) const {
    std::lock_guard lock(mutex_);
    const auto it = error_kinds_.find(kind);
    return it == error_kinds_.end() ? 0 : it->second;
  }
  /// Latencies of ok responses, in ms, sorted ascending.
  std::vector<double> ok_latencies() const {
    std::lock_guard lock(mutex_);
    std::vector<double> out = ok_latencies_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void on_response(const std::string& line) {
    // Responses open with {"id":N (the builders emit it first).
    std::uint64_t id = 0;
    bool has_id = false;
    if (line.rfind("{\"id\":", 0) == 0) {
      std::size_t pos = 6;
      while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        id = id * 10 + static_cast<std::uint64_t>(line[pos] - '0');
        has_id = true;
        ++pos;
      }
    }
    const bool is_ok = line.find("\"ok\":true") != std::string::npos;
    std::string kind;
    const std::size_t at = line.find("\"kind\":\"");
    if (at != std::string::npos) {
      const std::size_t from = at + 8;
      kind = line.substr(from, line.find('"', from) - from);
    }

    std::lock_guard lock(mutex_);
    ++responses_;
    if (is_ok) ++ok_;
    if (!kind.empty()) ++error_kinds_[kind];
    if (has_id) {
      const auto it = pending_.find(id);
      if (it != pending_.end()) {
        if (is_ok) {
          ok_latencies_.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        it->second)
                  .count());
        }
        pending_.erase(it);
        --outstanding_;
      }
    }
    cv_.notify_all();
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Clock::time_point> pending_;
  std::size_t outstanding_ = 0;
  std::size_t submitted_ = 0;
  std::size_t responses_ = 0;
  std::size_t ok_ = 0;
  std::map<std::string, std::size_t> error_kinds_;
  std::vector<double> ok_latencies_;
};

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The replay corpus, or empty (after naming the culprit on stderr) when
/// any program is missing: numbers from a partial corpus are not
/// comparable with the committed ones.
std::vector<std::string> load_programs(const std::string& dir) {
  static const char* kNames[] = {
      "budget_reduction.nck", "multiplicity_votes.nck", "two_coloring.nck",
      "vertex_cover_triangle.nck", "xor_gate.nck"};
  std::vector<std::string> programs;
  for (const char* name : kNames) {
    const std::string path = dir + "/" + name;
    std::ifstream in(path);
    std::ostringstream text;
    if (in) text << in.rdbuf();
    if (text.str().empty()) {
      std::fprintf(stderr, "bench_serve: cannot read %s\n", path.c_str());
      return {};
    }
    programs.push_back(text.str());
  }
  return programs;
}

/// Structural cold variant `i` of a base program: appended soft
/// constraints over fresh variables change the constraint multiset, so
/// the name-free plan fingerprint misses the cache (a mere rename would
/// not).
std::string cold_variant(const std::string& base, std::size_t i) {
  std::string out = base;
  const std::size_t pads = 1 + i % 3;
  for (std::size_t p = 0; p <= pads; ++p) {
    out += "\nnck({cold" + std::to_string(i) + "_" + std::to_string(p) +
           "}, {0}, soft)";
  }
  return out;
}

struct RequestMix {
  std::vector<std::string> programs;
  std::size_t reads = 10;

  /// Request `i` of a phase: 70% annealer solves (the cache-heavy op),
  /// 15% lint, 15% simplify. `cold` rewrites the program structurally.
  std::string line(std::uint64_t id, std::size_t i, bool cold) const {
    std::string program = programs[i % programs.size()];
    if (cold) program = cold_variant(program, i);
    const char* op = "solve";
    if (i % 7 == 5) op = "lint";
    if (i % 7 == 6) op = "simplify";
    std::string out = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                      std::string(op) + "\",\"program\":\"" +
                      serve::json_escape(program) + "\"";
    if (std::string(op) == "solve") {
      out += ",\"backend\":\"annealer\",\"reads\":" + std::to_string(reads);
    }
    out += "}";
    return out;
  }
};

std::string json_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  std::string programs_dir = NCK_REPO_DIR "/examples/programs";
  std::size_t requests = 1000;
  std::size_t workers = 4;
  std::uint64_t seed = 1234;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--programs=", 0) == 0) {
      programs_dir = arg.substr(11);
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = std::stoull(arg.substr(11));
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::stoull(arg.substr(10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--out=FILE] [--programs=DIR] "
                   "[--requests=N] [--workers=N] [--seed=N]\n");
      return 2;
    }
  }
  requests = std::max<std::size_t>(requests, 50);

  RequestMix mix;
  mix.programs = load_programs(programs_dir);
  if (mix.programs.empty()) return 2;
  std::uint64_t next_id = 1;

  // ---- Phase 1: warm closed-loop -----------------------------------
  const std::size_t warm_n = requests;
  double warm_elapsed_ms = 0.0;
  std::vector<double> warm_lat;
  double warm_hit_rate = 0.0;
  {
    ServerOptions options;
    options.num_workers = workers;
    options.queue_depth = 2 * workers + warm_n;  // no shedding in this phase
    options.seed = seed;
    Client client;
    Server server(options, client.sink());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < warm_n; ++i) {
      client.wait_below(workers);
      const std::uint64_t id = next_id++;
      client.note_submit(id);
      server.submit_line(mix.line(id, i, /*cold=*/false));
    }
    client.wait_all();
    warm_elapsed_ms = ms_since(t0);
    warm_lat = client.ok_latencies();
    warm_hit_rate = server.stats().cache_hit_rate;
  }
  const double warm_p50 = quantile(warm_lat, 0.50);
  const double warm_p99 = quantile(warm_lat, 0.99);
  const double warm_max = warm_lat.empty() ? 0.0 : warm_lat.back();
  const double warm_mean_ms =
      warm_lat.empty()
          ? 0.0
          : std::accumulate(warm_lat.begin(), warm_lat.end(), 0.0) /
                static_cast<double>(warm_lat.size());
  // Closed loop with `workers` in flight keeps every worker busy, so the
  // per-worker service time is workers * elapsed / n.
  const double service_ms = static_cast<double>(workers) * warm_elapsed_ms /
                            static_cast<double>(warm_n);
  const double capacity_rps = 1000.0 * static_cast<double>(workers) /
                              std::max(service_ms, 1e-3);
  const double warm_throughput =
      1000.0 * static_cast<double>(warm_n) / std::max(warm_elapsed_ms, 1e-3);

  // ---- Phase 2: overload at 2x capacity ----------------------------
  const std::size_t over_n = std::max<std::size_t>(requests * 4 / 5, 40);
  const std::size_t over_queue = 2 * workers;
  const double offered_rps = 2.0 * capacity_rps;
  std::size_t over_shed = 0, over_completed = 0;
  double over_p99 = 0.0;
  {
    ServerOptions options;
    options.num_workers = workers;
    options.queue_depth = over_queue;
    options.seed = seed;
    Client client;
    Server server(options, client.sink());
    const auto interval = std::chrono::duration<double>(1.0 / offered_rps);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < over_n; ++i) {
      const std::uint64_t id = next_id++;
      client.note_submit(id);
      server.submit_line(mix.line(id, i, /*cold=*/i % 5 == 4));
      const auto next_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      interval * static_cast<double>(i + 1));
      std::this_thread::sleep_until(next_at);
    }
    client.wait_all();
    const auto stats = server.stats();
    over_shed = stats.shed;
    over_completed = stats.completed;
    over_p99 = quantile(client.ok_latencies(), 0.99);
  }
  // A bounded queue bounds the work ahead of any admitted request; 4x
  // covers cold-variant service and scheduling noise (and survives the
  // sanitizer builds, where everything slows down together).
  const double p99_bound_ms = static_cast<double>(over_queue + workers) *
                              std::max(warm_max, service_ms) * 4.0;
  const bool p99_bounded = over_p99 <= p99_bound_ms;

  // ---- Phase 3: graceful drain mid-run -----------------------------
  const std::size_t drain_n = std::max<std::size_t>(requests * 2 / 5, 30);
  std::size_t drain_submitted = 0, drain_responses = 0, drain_ok = 0;
  std::size_t drain_rejected = 0, drain_dropped = 0;
  {
    ServerOptions options;
    options.num_workers = workers;
    options.queue_depth = 64;
    options.seed = seed;
    Client client;
    Server server(options, client.sink());
    const auto interval =
        std::chrono::duration<double>(1.0 / (1.5 * capacity_rps));
    std::thread submitter([&] {
      const auto start = Clock::now();
      for (std::size_t i = 0; i < drain_n; ++i) {
        const std::uint64_t id = next_id++;
        client.note_submit(id);
        server.submit_line(mix.line(id, i, /*cold=*/false));
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i + 1)));
      }
    });
    // Let roughly a third of the traffic land, then pull the plug the way
    // SIGTERM does; the submitter keeps going and must only ever see
    // typed `draining` rejections.
    std::this_thread::sleep_for(std::chrono::duration_cast<Clock::duration>(
        interval * (static_cast<double>(drain_n) / 3.0)));
    server.drain();
    submitter.join();
    client.wait_all();
    drain_submitted = client.submitted();
    drain_responses = client.responses();
    drain_ok = client.ok();
    drain_rejected = client.errors("draining");
    drain_dropped = drain_submitted - drain_responses;
  }

  std::printf("bench_serve: %zu programs, %zu workers\n",
              mix.programs.size(), workers);
  std::printf("  warm:     n=%zu p50=%.2fms p99=%.2fms mean=%.2fms "
              "throughput=%.0f rps cache_hit=%.2f\n",
              warm_n, warm_p50, warm_p99, warm_mean_ms, warm_throughput,
              warm_hit_rate);
  std::printf("  overload: n=%zu offered=%.0f rps shed=%zu completed=%zu "
              "p99=%.2fms bound=%.2fms bounded=%s\n",
              over_n, offered_rps, over_shed, over_completed, over_p99,
              p99_bound_ms, p99_bounded ? "yes" : "NO");
  std::printf("  drain:    submitted=%zu responses=%zu ok=%zu "
              "rejected_draining=%zu dropped=%zu\n",
              drain_submitted, drain_responses, drain_ok, drain_rejected,
              drain_dropped);

  std::ofstream out(out_path);
  out << "{\"bench\":\"serve\",\"workers\":" << workers
      << ",\"programs\":" << mix.programs.size()
      << ",\"warm\":{\"requests\":" << warm_n
      << ",\"p50_ms\":" << json_num(warm_p50)
      << ",\"p99_ms\":" << json_num(warm_p99)
      << ",\"mean_ms\":" << json_num(warm_mean_ms)
      << ",\"max_ms\":" << json_num(warm_max)
      << ",\"service_ms\":" << json_num(service_ms)
      << ",\"throughput_rps\":" << json_num(warm_throughput)
      << ",\"capacity_rps\":" << json_num(capacity_rps)
      << ",\"cache_hit_rate\":" << json_num(warm_hit_rate) << "}"
      << ",\"overload\":{\"requests\":" << over_n
      << ",\"offered_rps\":" << json_num(offered_rps)
      << ",\"queue_depth\":" << over_queue << ",\"shed\":" << over_shed
      << ",\"completed\":" << over_completed
      << ",\"shed_rate\":" << json_num(static_cast<double>(over_shed) /
                                       static_cast<double>(over_n))
      << ",\"p99_ms\":" << json_num(over_p99)
      << ",\"p99_bound_ms\":" << json_num(p99_bound_ms)
      << ",\"p99_bounded\":" << (p99_bounded ? "true" : "false") << "}"
      << ",\"drain\":{\"submitted\":" << drain_submitted
      << ",\"responses\":" << drain_responses << ",\"ok\":" << drain_ok
      << ",\"rejected_draining\":" << drain_rejected
      << ",\"dropped\":" << drain_dropped << "}}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
