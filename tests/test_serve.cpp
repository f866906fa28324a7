// Serve-daemon robustness: wire-protocol strictness (malformed input can
// never kill the daemon, only earn a typed bad_request), admission
// control and load shedding, queue-deadline rejection, graceful drain,
// the stuck-worker watchdog, and the latency histogram behind the p50/p99
// gauges.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/latency.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace nck::serve {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------- protocol

TEST(Protocol, ParsesFullRequest) {
  Request req;
  std::string why;
  ASSERT_TRUE(parse_request(
      R"x({"id":7,"op":"solve","program":"nck({a,b},{1})","backend":"annealer",)x"
      R"x("deadline_ms":250,"reads":100,"shots":4000,"trace":true})x",
      req, why))
      << why;
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.op, Op::kSolve);
  EXPECT_EQ(req.program, "nck({a,b},{1})");
  EXPECT_EQ(req.backend, BackendKind::kAnnealer);
  EXPECT_DOUBLE_EQ(req.deadline_ms, 250.0);
  EXPECT_EQ(req.reads, 100u);
  EXPECT_EQ(req.shots, 4000u);
  EXPECT_TRUE(req.trace);
}

TEST(Protocol, RejectsMalformedLinesWithAReason) {
  const char* bad[] = {
      "",                                    // empty
      "not json at all",                     // garbage
      "{\"op\":\"solve\"",                   // truncated object
      "{\"op\":\"solve\",}",                 // trailing comma
      "{\"op\":\"launch_missiles\"}",        // unknown op
      "{\"op\":\"solve\"}",                  // missing program
      "{\"op\":\"solve\",\"program\":\"\"}", // empty program
      "{\"program\":\"nck({a},{1})\"}",      // missing op
      "{\"op\":\"solve\",\"program\":\"x\",\"frobnicate\":1}",  // unknown key
      "{\"id\":-3,\"op\":\"stats\"}",        // negative id
      "{\"id\":1.5,\"op\":\"stats\"}",       // fractional id
      "{\"op\":\"solve\",\"program\":\"x\",\"backend\":\"abacus\"}",
      "{\"op\":\"solve\",\"program\":\"x\",\"reads\":-1}",
      "{\"op\":\"solve\",\"program\":\"x\",\"reads\":10001}",   // over cap
      "{\"op\":\"solve\",\"program\":\"x\",\"shots\":100001}",  // over cap
      "{\"op\":\"solve\",\"program\":\"x\",\"deadline_ms\":\"soon\"}",
      "{\"op\":\"stats\"} trailing",         // trailing characters
      "[1,2,3]",                             // not an object
  };
  for (const char* line : bad) {
    Request req;
    std::string why;
    EXPECT_FALSE(parse_request(line, req, why)) << line;
    EXPECT_FALSE(why.empty()) << line;
  }
  // Sample budgets exactly at the caps still parse.
  Request req;
  std::string why;
  ASSERT_TRUE(parse_request(
      "{\"op\":\"solve\",\"program\":\"x\",\"reads\":" +
          std::to_string(kMaxReads) + ",\"shots\":" +
          std::to_string(kMaxShots) + "}",
      req, why))
      << why;
  EXPECT_EQ(req.reads, kMaxReads);
  EXPECT_EQ(req.shots, kMaxShots);
}

TEST(Protocol, DecodesEveryStandardStringEscape) {
  // What json.dumps writes by default: \uXXXX for every non-ASCII
  // character (a surrogate pair beyond the BMP), \b and \f.
  Request req;
  std::string why;
  ASSERT_TRUE(parse_request(
      R"x({"op":"lint","program":"nck({caf\u00e9, \u03b1\u2192, x\ud83d\ude00}, {1}) # \b\f\/\u0001"})x",
      req, why))
      << why;
  EXPECT_EQ(req.program,
            "nck({caf\xc3\xa9, \xce\xb1\xe2\x86\x92, x\xf0\x9f\x98\x80}, {1}) "
            "# \b\f/\x01");
  // Hex digits in either case.
  ASSERT_TRUE(parse_request(R"x({"op":"lint","program":"\u00C9\u00e9"})x", req,
                            why))
      << why;
  EXPECT_EQ(req.program, "\xc3\x89\xc3\xa9");
}

TEST(Protocol, RejectsLoneOrMalformedSurrogatesWithAPosition) {
  const char* bad[] = {
      R"x({"op":"lint","program":"a\udc00"})x",        // lone low surrogate
      R"x({"op":"lint","program":"a\ud83d"})x",        // high at string end
      R"x({"op":"lint","program":"a\ud83dx"})x",       // high, then a byte
      R"x({"op":"lint","program":"a\ud83d\u0041"})x",  // high, then not low
      R"x({"op":"lint","program":"a\ud83d\ud83d"})x",  // high, then high
      R"x({"op":"lint","program":"a\u12"})x",          // short hex
      R"x({"op":"lint","program":"a\u12g4"})x",        // not hex
  };
  for (const char* line : bad) {
    Request req;
    std::string why;
    EXPECT_FALSE(parse_request(line, req, why)) << line;
    EXPECT_NE(why.find("at offset"), std::string::npos) << line << ": " << why;
  }
}

TEST(Protocol, OversizedLineIsRejectedBeforeParsing) {
  std::string line = "{\"op\":\"solve\",\"program\":\"";
  line += std::string(kMaxRequestBytes, 'x');
  line += "\"}";
  Request req;
  std::string why;
  EXPECT_FALSE(parse_request(line, req, why));
  EXPECT_NE(why.find("byte cap"), std::string::npos);
}

TEST(Protocol, IdParsedBeforeTheFailureIsEchoed) {
  Request req;
  std::string why;
  EXPECT_FALSE(parse_request("{\"id\":9,\"op\":\"nope\"}", req, why));
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(id_json(req), "9");
  EXPECT_EQ(error_response(id_json(req), "invalid", WireError::kBadRequest,
                           why)
                .find("{\"id\":9,"),
            0u);
}

TEST(Protocol, ResponsesEscapeDetails) {
  const std::string resp = error_response(
      "null", "solve", WireError::kBadRequest, "quote \" and\nnewline");
  EXPECT_NE(resp.find("\\\""), std::string::npos);
  EXPECT_NE(resp.find("\\n"), std::string::npos);
  EXPECT_EQ(resp.find('\n'), std::string::npos)
      << "a response must stay a single line";
}

// ----------------------------------------------------- latency histogram

TEST(Latency, QuantilesApproximateWithinBucketGrowth) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Geometric buckets with 1.25 growth: at most 25% relative error, and
  // quantile() reports bucket upper bounds so the estimate never reads low.
  EXPECT_GE(h.quantile(0.5), 500.0);
  EXPECT_LE(h.quantile(0.5), 500.0 * 1.25);
  EXPECT_GE(h.quantile(0.99), 990.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);  // clamped to the observed max
  EXPECT_EQ(h.quantile(1.0), 1000.0);
}

TEST(Latency, EmptyAndEdgeObservations) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0.0);
  h.observe(-5.0);  // clamps to 0
  h.observe(0.0);
  h.observe(1e9);  // clamps into the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_EQ(h.quantile(1.0), 1e9);
}

// ------------------------------------------------------------- harness

/// Collects responses from an in-process Server and lets tests wait for
/// them by count or by id substring.
class TestClient {
 public:
  Server::Sink sink() {
    return [this](const std::string& line) {
      std::lock_guard lock(mutex_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }

  /// Blocks until at least `n` responses arrived (fails the test on a 10s
  /// timeout, so a deadlocked daemon cannot hang the suite).
  std::vector<std::string> wait_for(std::size_t n) {
    std::unique_lock lock(mutex_);
    EXPECT_TRUE(cv_.wait_for(lock, 10s, [&] { return lines_.size() >= n; }))
        << "timed out waiting for " << n << " responses, have "
        << lines_.size();
    return lines_;
  }

  /// The response echoing `id`, or "" when absent.
  std::string by_id(std::uint64_t id) {
    const std::string tag = "{\"id\":" + std::to_string(id) + ",";
    std::lock_guard lock(mutex_);
    for (const std::string& line : lines_) {
      if (line.rfind(tag, 0) == 0) return line;
    }
    return "";
  }

  std::size_t count() {
    std::lock_guard lock(mutex_);
    return lines_.size();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

ServerOptions fast_options(std::size_t workers = 2) {
  ServerOptions options;
  options.num_workers = workers;
  options.annealer.sampler.num_reads = 10;
  options.annealer.sampler.num_sweeps = 64;
  return options;
}

bool has(const std::string& line, const std::string& needle) {
  return line.find(needle) != std::string::npos;
}

// -------------------------------------------------------- op round trips

TEST(Serve, SolveLintCertifySimplifyRoundTrip) {
  TestClient client;
  Server server(fast_options(), client.sink());
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x");
  server.submit_line(
      R"x({"id":2,"op":"solve","program":"nck({a,b,c},{1,2}) nck({a},{0},soft)","backend":"annealer"})x");
  server.submit_line(R"x({"id":3,"op":"lint","program":"nck({a,b},{1})"})x");
  server.submit_line(R"x({"id":4,"op":"certify","program":"nck({a,b},{1})"})x");
  server.submit_line(
      R"x({"id":5,"op":"simplify","program":"nck({a},{1}) /\\ nck({a,b},{2})"})x");
  client.wait_for(5);

  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true"));
  EXPECT_TRUE(has(client.by_id(1), "\"quality\":\"optimal\""));
  EXPECT_TRUE(has(client.by_id(1), "\"assignment\":{"));
  EXPECT_TRUE(has(client.by_id(2), "\"backend\":\"annealer\""));
  EXPECT_TRUE(has(client.by_id(2), "\"ok\":true"));
  EXPECT_TRUE(has(client.by_id(3), "\"report\":{"));
  EXPECT_TRUE(has(client.by_id(4), "\"certificate\":{"));
  EXPECT_TRUE(has(client.by_id(5), "\"simplify\":{"));
  EXPECT_TRUE(has(client.by_id(5), "\"changed\":true"));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.latency_count, 5u);
  EXPECT_GT(stats.p99_ms, 0.0);
}

TEST(Serve, TraceRequestCarriesTheObsDocument) {
  TestClient client;
  Server server(fast_options(), client.sink());
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"annealer","trace":true})x");
  client.wait_for(1);
  EXPECT_TRUE(has(client.by_id(1), "\"trace\":{\"schema\":\"nck-trace-v1\""));
}

TEST(Serve, StatsAnswersInlineAndCountsCacheHits) {
  TestClient client;
  Server server(fast_options(), client.sink());
  const std::string solve =
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"annealer"})x";
  server.submit_line(solve);
  client.wait_for(1);
  server.submit_line(
      R"x({"id":2,"op":"solve","program":"nck({x,y},{1})","backend":"annealer"})x");
  client.wait_for(2);
  server.submit_line(R"x({"id":3,"op":"stats"})x");
  client.wait_for(3);
  const std::string stats = client.by_id(3);
  EXPECT_TRUE(has(stats, "\"op\":\"stats\""));
  EXPECT_TRUE(has(stats, "\"admitted\":2"));
  EXPECT_TRUE(has(stats, "\"latency_ms\":{"));
  // The renamed-but-isomorphic second program hits the name-free plan key.
  EXPECT_GT(server.stats().cache.hits, 0u);
  EXPECT_GT(server.stats().cache_hit_rate, 0.0);
}

TEST(Serve, SizeKeyAloneTurnsDecompositionOn) {
  // nck_cli's --subproblem-vars implies --decompose; the wire key must
  // too, or the two front ends answer one request differently.
  TestClient client;
  Server server(fast_options(), client.sink());
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1,2}) nck({b,c},{1,2}) nck({a},{0},soft)","backend":"classical","subproblem_vars":2})x");
  client.wait_for(1);
  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true")) << client.by_id(1);
  EXPECT_TRUE(has(client.by_id(1), "\"decompose\":{")) << client.by_id(1);
  EXPECT_EQ(server.stats().decomposed, 1u);
}

// ------------------------------------------------- malformed-input fuzz

TEST(Serve, GarbageNeverKillsTheDaemonOnlyBadRequests) {
  TestClient client;
  Server server(fast_options(1), client.sink());
  const char* garbage[] = {
      "",
      "\x01\x02\xff binary trash",
      "{\"op\":\"solve\"",
      "{{{{{{{{",
      "{\"op\":\"solve\",\"program\":\"nck(\"}",  // parses, program broken
      "{\"op\":\"solve\",\"program\":123}",
      "{\"id\":999999999999999999999999,\"op\":\"stats\"}",
      "null",
      "\"op\"",
  };
  std::size_t expect = 0;
  for (const char* line : garbage) {
    server.submit_line(line);
    client.wait_for(++expect);
  }
  for (const std::string& line : client.wait_for(expect)) {
    EXPECT_TRUE(has(line, "\"ok\":false")) << line;
    EXPECT_TRUE(has(line, "\"kind\":\"bad_request\"")) << line;
  }
  // The daemon still serves after the abuse.
  server.submit_line(
      R"x({"id":10,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x");
  client.wait_for(expect + 1);
  EXPECT_TRUE(has(client.by_id(10), "\"ok\":true"));
}

TEST(Serve, UnparsableProgramIsATypedBadRequestNotACrash) {
  TestClient client;
  Server server(fast_options(1), client.sink());
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"this is not nck syntax"})x");
  client.wait_for(1);
  EXPECT_TRUE(has(client.by_id(1), "\"kind\":\"bad_request\""));
  server.submit_line(R"x({"id":2,"op":"lint","program":"nck({a,b},{2})"})x");
  client.wait_for(2);
  EXPECT_TRUE(has(client.by_id(2), "\"ok\":true"));
}

TEST(Serve, OversizedLineCountsAsBadRequest) {
  TestClient client;
  Server server(fast_options(1), client.sink());
  std::string line = "{\"op\":\"solve\",\"program\":\"";
  line += std::string(kMaxRequestBytes, 'x');
  line += "\"}";
  server.submit_line(line);
  server.reject_oversized(kMaxRequestBytes * 3);  // the stdio streaming path
  client.wait_for(2);
  for (const std::string& resp : client.wait_for(2)) {
    EXPECT_TRUE(has(resp, "\"kind\":\"bad_request\"")) << resp;
  }
  EXPECT_EQ(server.stats().rejected_bad_request, 2u);
}

// --------------------------------------------- admission and deadlines

TEST(Serve, FullQueueShedsWithTypedOverload) {
  std::atomic<bool> release{false};
  ServerOptions options = fast_options(1);
  options.queue_depth = 1;
  options.test_stall = [&](const Request&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  TestClient client;
  Server server(options, client.sink());

  const std::string solve =
      R"x({"id":IDID,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x";
  auto line = [&](int id) {
    std::string s = solve;
    return s.replace(s.find("IDID"), 4, std::to_string(id));
  };
  server.submit_line(line(1));  // occupies the single worker
  // Wait until the worker actually picked it up so the queue is empty.
  while (server.stats().in_flight == 0) std::this_thread::sleep_for(1ms);
  server.submit_line(line(2));  // fills the queue (depth 1)
  server.submit_line(line(3));  // must shed
  const std::string shed = client.wait_for(1)[0];
  EXPECT_TRUE(has(shed, "{\"id\":3,"));
  EXPECT_TRUE(has(shed, "\"kind\":\"overloaded\""));
  EXPECT_EQ(server.stats().shed, 1u);

  release = true;
  client.wait_for(3);
  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true"));
  EXPECT_TRUE(has(client.by_id(2), "\"ok\":true"));
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(Serve, QueueExpiredDeadlineRejectedWithoutBurningAWorker) {
  std::atomic<bool> release{false};
  std::atomic<int> stalls{0};
  ServerOptions options = fast_options(1);
  options.test_stall = [&](const Request&) {
    ++stalls;
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  TestClient client;
  Server server(options, client.sink());

  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x");
  while (server.stats().in_flight == 0) std::this_thread::sleep_for(1ms);
  // 1 ms budget, but the only worker is pinned for ~50 ms: the budget is
  // gone by dequeue time, so the request is rejected at the gate — the
  // stall hook (and the solver) must never run for it.
  server.submit_line(
      R"x({"id":2,"op":"solve","program":"nck({a,b},{1})","deadline_ms":1})x");
  std::this_thread::sleep_for(50ms);
  release = true;
  client.wait_for(2);

  EXPECT_TRUE(has(client.by_id(2), "\"kind\":\"deadline_expired\""));
  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true"));
  EXPECT_EQ(server.stats().rejected_deadline, 1u);
  EXPECT_EQ(stalls.load(), 1) << "the expired request must not reach a worker";
}

TEST(Serve, RemainingBudgetPropagatesIntoTheSolver) {
  // An admitted request whose budget survives the queue but is consumed
  // mid-dispatch fails *inside* the solver with the typed FailureKind —
  // ok:true at the wire layer, kDeadlineExhausted in the result.
  std::atomic<bool> release{false};
  ServerOptions options = fast_options(1);
  options.test_stall = [&](const Request& req) {
    // Pin only the deadline request itself, after the dequeue gate.
    if (req.deadline_ms < 1000.0) {
      while (!release.load()) std::this_thread::sleep_for(1ms);
    }
  };
  TestClient client;
  Server server(options, client.sink());
  // Warm the worker up first (Solver construction can dwarf the deadline
  // on slow/sanitized builds): the budget must die in-dispatch, not in
  // the queue.
  server.submit_line(R"x({"id":9,"op":"lint","program":"nck({a,b},{1})"})x");
  client.wait_for(1);
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","deadline_ms":40})x");
  std::this_thread::sleep_for(80ms);
  release = true;
  client.wait_for(2);
  const std::string resp = client.by_id(1);
  EXPECT_TRUE(has(resp, "\"ok\":true")) << resp;
  EXPECT_TRUE(has(resp, "\"failure\":\"deadline-exhausted\"")) << resp;
}

// ------------------------------------------------------- drain semantics

TEST(Serve, DrainFinishesInFlightRejectsQueuedRefusesNew) {
  std::atomic<bool> release{false};
  ServerOptions options = fast_options(1);
  options.test_stall = [&](const Request&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
  };
  TestClient client;
  Server server(options, client.sink());

  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x");
  while (server.stats().in_flight == 0) std::this_thread::sleep_for(1ms);
  server.submit_line(R"x({"id":2,"op":"lint","program":"nck({a,b},{1})"})x");
  server.submit_line(R"x({"id":3,"op":"lint","program":"nck({a,b},{1})"})x");

  std::thread releaser([&] {
    std::this_thread::sleep_for(50ms);
    release = true;
  });
  server.drain();  // blocks until the in-flight solve lands
  releaser.join();

  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true"))
      << "in-flight work must complete";
  EXPECT_TRUE(has(client.by_id(2), "\"kind\":\"draining\""));
  EXPECT_TRUE(has(client.by_id(3), "\"kind\":\"draining\""));

  // Post-drain admissions are refused; stats still answers.
  server.submit_line(R"x({"id":4,"op":"lint","program":"nck({a,b},{1})"})x");
  server.submit_line(R"x({"id":5,"op":"stats"})x");
  client.wait_for(5);
  EXPECT_TRUE(has(client.by_id(4), "\"kind\":\"draining\""));
  EXPECT_TRUE(has(client.by_id(5), "\"ok\":true"));
  EXPECT_TRUE(has(client.by_id(5), "\"draining\":true"));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected_draining, 3u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Serve, ShutdownOpClosesAdmissionAndSignalsTheDriver) {
  TestClient client;
  Server server(fast_options(1), client.sink());
  EXPECT_EQ(server.submit_line(R"x({"id":1,"op":"shutdown"})x"),
            Server::Submit::kShutdown);
  EXPECT_TRUE(server.draining());
  EXPECT_TRUE(has(client.by_id(1), "\"ok\":true"));
  server.drain();
  EXPECT_EQ(server.submit_line(R"x({"id":2,"op":"lint","program":"x"})x"),
            Server::Submit::kContinue);
  EXPECT_TRUE(has(client.by_id(2), "\"kind\":\"draining\""));
}

// ------------------------------------------------------------- watchdog

TEST(Serve, WatchdogFailsStuckWorkerAndDropsTheLateResult) {
  ServerOptions options = fast_options(1);
  options.stuck_after_ms = 50.0;  // the watchdog scans every 12.5 ms
  options.test_stall = [](const Request&) {
    std::this_thread::sleep_for(500ms);  // well past the service cap
  };
  TestClient client;
  Server server(options, client.sink());
  server.submit_line(
      R"x({"id":1,"op":"solve","program":"nck({a,b},{1})","backend":"classical"})x");
  // The typed worker_stuck response must arrive while the worker is still
  // pinned — long before the 500 ms stall ends.
  const std::string resp = client.wait_for(1)[0];
  EXPECT_TRUE(has(resp, "\"kind\":\"worker_stuck\"")) << resp;
  EXPECT_EQ(server.stats().worker_stuck, 1u);
  EXPECT_EQ(server.stats().in_flight, 1u) << "worker still busy";

  server.drain();  // waits for the stalled worker to come back
  EXPECT_EQ(client.count(), 1u)
      << "the late result must be dropped, not double-responded";
  EXPECT_EQ(server.stats().late_dropped, 1u);
  EXPECT_EQ(server.stats().completed, 0u);

  // The worker rejoined the pool: post-stall requests would stall again,
  // so only check the daemon still answers stats inline.
  server.submit_line(R"x({"id":9,"op":"stats"})x");
  client.wait_for(2);
  EXPECT_TRUE(has(client.by_id(9), "\"worker_stuck\":1"));
}

// ------------------------------------------------------------ chaos mode

TEST(Serve, ChaosModeStillYieldsWellFormedResponses) {
  // NCK_CHAOS=1 arms the fixed-seed fault schedule in every worker Solver
  // (read at construction). Faulted solves may fail — but every response
  // must stay well-formed and typed; the daemon itself never dies.
  ::setenv("NCK_CHAOS", "1", 1);
  {
    TestClient client;
    Server server(fast_options(2), client.sink());
    for (int i = 1; i <= 8; ++i) {
      const char* backend = i % 2 ? "annealer" : "classical";
      server.submit_line(
          "{\"id\":" + std::to_string(i) +
          ",\"op\":\"solve\",\"program\":\"nck({a,b,c},{1,2}) "
          "nck({a},{0},soft)\",\"backend\":\"" + backend + "\"}");
    }
    client.wait_for(8);
    server.drain();
    for (int i = 1; i <= 8; ++i) {
      const std::string resp = client.by_id(static_cast<std::uint64_t>(i));
      ASSERT_FALSE(resp.empty()) << "request " << i << " got no response";
      EXPECT_TRUE(has(resp, "\"op\":\"solve\"")) << resp;
      // Chaos faults surface as ok:true with a typed result.failure (the
      // solve ran and failed) — never as a malformed line.
      EXPECT_TRUE(has(resp, "\"ok\":true")) << resp;
      EXPECT_TRUE(has(resp, "\"failure\":\"")) << resp;
    }
    EXPECT_EQ(server.stats().completed, 8u);
  }
  ::unsetenv("NCK_CHAOS");
}

// ------------------------------------------------------- determinism

TEST(Serve, SameRequestStreamSameResultsRegardlessOfWorkerCount) {
  const auto run = [](std::size_t workers) {
    TestClient client;
    Server server(fast_options(workers), client.sink());
    for (int i = 1; i <= 6; ++i) {
      server.submit_line(
          "{\"id\":" + std::to_string(i) +
          ",\"op\":\"solve\",\"program\":\"nck({a,b,c},{1,2}) "
          "nck({a},{0},soft)\",\"backend\":\"annealer\"}");
    }
    client.wait_for(6);
    std::vector<std::string> out;
    for (int i = 1; i <= 6; ++i) {
      std::string resp = client.by_id(static_cast<std::uint64_t>(i));
      // Strip the timing fields (the only nondeterministic part).
      const std::size_t at = resp.find(",\"queue_ms\":");
      out.push_back(resp.substr(0, at));
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4)) << "per-request seeds must make results "
                               "independent of worker scheduling";
}

}  // namespace
}  // namespace nck::serve
