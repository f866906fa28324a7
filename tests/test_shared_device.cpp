// One Advantage 4.1 device per process: every Solver, pool task, decompose
// sub-solve and serve worker borrows the same read-only Device, and
// dead-qubit recovery degrades per-solve copies, never the shared device.
// Many threads read the device at once here, so the tsan CI job runs this
// binary too.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "anneal/topology.hpp"
#include "circuit/coupling.hpp"
#include "core/parse.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "runtime/pool.hpp"
#include "serve/server.hpp"

namespace nck {
namespace {

Env small_program() { return MaxCutProblem{cycle_graph(5)}.encode(); }

/// Two embedded qubits die on the first attempt; one retry re-embeds.
ResilienceOptions dead_qubits_once() {
  ResilienceOptions res;
  res.faults = FaultPlan::parse("dead:2@1");
  res.retry.max_retries = 1;
  return res;
}

void expect_shared_device_pristine(const backend::Fingerprint& digest) {
  const Device& shared = shared_advantage_4_1();
  EXPECT_EQ(shared.digest(), digest);
  EXPECT_EQ(shared.num_operable(), shared.graph.num_vertices());
}

TEST(SharedDevice, SolversOnManyThreadsBorrowOneDeviceAndCouplingMap) {
  // Pool tasks and serve workers each construct their Solver on their own
  // thread: all of them, whatever their seed, must land on one object.
  constexpr std::size_t kThreads = 8;
  std::vector<const Device*> devices(kThreads, nullptr);
  std::vector<const Graph*> couplings(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Solver solver(t + 1);
      devices[t] = solver.backends()
                       .find(BackendKind::kAnnealer)
                       ->analysis_target()
                       .annealer;
      couplings[t] = solver.backends()
                         .find(BackendKind::kCircuit)
                         ->analysis_target()
                         .coupling;
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(devices[t], &shared_advantage_4_1()) << "solver " << t;
    EXPECT_EQ(couplings[t], &shared_brooklyn_coupling()) << "solver " << t;
  }
}

TEST(SharedDevice, DeadQubitStormLeavesTheNextPlanKeyUnchanged) {
  const Env env = small_program();
  const backend::Fingerprint digest = shared_advantage_4_1().digest();
  Solver solver(42);
  solver.resilience_options() = ResilienceOptions{};
  solver.annealer_options().sampler.num_reads = 10;
  const backend::Backend& anneal =
      *solver.backends().find(BackendKind::kAnnealer);
  backend::PrepareContext ctx;
  ctx.env = &env;
  const backend::Fingerprint key = anneal.plan_key(ctx);
  ASSERT_TRUE(solver.solve(env, BackendKind::kAnnealer).ran);

  // Three attempts in a row lose qubits; each re-embeds on a further
  // degraded copy of the device.
  ResilienceOptions storm;
  storm.faults = FaultPlan::parse("dead:2@1,dead:2@2,dead:2@3");
  storm.retry.max_retries = 3;
  solver.resilience_options() = storm;
  const SolveReport stormy = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(stormy.ran) << stormy.failure_message();
  EXPECT_EQ(stormy.resilience.reembeds, 3u);

  solver.resilience_options() = ResilienceOptions{};
  EXPECT_EQ(anneal.plan_key(ctx), key);
  const SolveReport calm = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(calm.ran) << calm.failure_message();
  EXPECT_DOUBLE_EQ(calm.trace.counter("plan_cache.miss"), 0.0)
      << "the solve after the storm prepared a new plan";
  expect_shared_device_pristine(digest);
}

TEST(SharedDevice, PoolTasksDegradeCopiesNeverTheSharedDevice) {
  const backend::Fingerprint digest = shared_advantage_4_1().digest();
  PoolOptions options;
  options.num_threads = 4;
  options.annealer.sampler.num_reads = 10;
  options.resilience = dead_qubits_once();
  SolverPool pool(options);
  const std::vector<Env> envs(8, small_program());
  const BatchReport batch = pool.solve_all(envs, BackendKind::kAnnealer);
  ASSERT_EQ(batch.reports.size(), envs.size());
  for (const SolveReport& r : batch.reports) {
    EXPECT_TRUE(r.ran) << r.failure_message();
    EXPECT_EQ(r.resilience.reembeds, 1u);
  }
  expect_shared_device_pristine(digest);
}

TEST(SharedDevice, ServeWorkersSolveAndLintAgainstTheSharedDevice) {
  const backend::Fingerprint digest = shared_advantage_4_1().digest();
  const std::string program = "nck({a,b,c},{1,2}) nck({a},{0},soft)";
  serve::ServerOptions options;
  options.num_workers = 4;
  options.annealer.sampler.num_reads = 10;
  options.annealer.sampler.num_sweeps = 64;
  options.resilience = dead_qubits_once();
  constexpr std::size_t kRequests = 8;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::string> lines;
  {
    serve::Server server(options, [&](const std::string& line) {
      std::lock_guard lock(mutex);
      lines.push_back(line);
      cv.notify_all();
    });
    for (std::size_t i = 1; i <= kRequests; ++i) {
      const bool solve = i % 2 == 1;
      server.submit_line("{\"id\":" + std::to_string(i) + ",\"op\":\"" +
                         (solve ? "solve" : "lint") + "\",\"program\":\"" +
                         program + "\"" +
                         (solve ? ",\"backend\":\"annealer\"" : "") + "}");
    }
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return lines.size() == kRequests; }));
  }

  // A lint request is checked against the shared device and coupling map.
  SynthEngine engine;
  AnalysisTarget hw;
  hw.annealer = &shared_advantage_4_1();
  hw.coupling = &shared_brooklyn_coupling();
  const std::string report =
      Analyzer().analyze(parse_program(program), engine, hw).to_json();
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    if (line.find("\"op\":\"lint\"") != std::string::npos) {
      EXPECT_NE(line.find("\"report\":" + report), std::string::npos) << line;
    } else {
      EXPECT_NE(line.find("\"ran\":true"), std::string::npos) << line;
    }
  }
  expect_shared_device_pristine(digest);
}

}  // namespace
}  // namespace nck
