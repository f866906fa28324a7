#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "backend/fingerprint.hpp"
#include "backend/plan.hpp"
#include "backend/plan_cache.hpp"
#include "circuit/backend.hpp"
#include "circuit/coupling.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "problems/max_cut.hpp"
#include "synth/engine.hpp"

namespace nck::backend {
namespace {

// ------------------------------------------------------ fingerprint core

TEST(FingerprintTest, LanesStartDecorrelatedAndMixChanges) {
  Fingerprint a;
  Fingerprint b;
  EXPECT_EQ(a, b);
  a.mix(std::uint64_t{1});
  EXPECT_NE(a, b);
  b.mix(std::uint64_t{2});
  EXPECT_NE(a, b);  // different content, different prints
}

TEST(FingerprintTest, DoubleNormalizesNans) {
  Fingerprint a;
  Fingerprint b;
  a.mix(std::numeric_limits<double>::quiet_NaN());
  b.mix(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(a, b);
  Fingerprint c;
  c.mix(0.5);
  EXPECT_NE(a, c);
}

// ------------------------------------------- plan-key hash sensitivity

Device small_device() {
  // A deterministic toy device large enough to embed a 5-cycle max-cut.
  return perfect_device("toy", circulant_graph(24, std::size_t{4}));
}

AnnealBackendOptions small_anneal_options() {
  AnnealBackendOptions options;
  options.sampler.num_reads = 20;
  return options;
}

Fingerprint anneal_key(const Env& env, const AnnealBackendOptions& options,
                       const Device& device) {
  AnnealAdapter adapter(&options, &device);
  PrepareContext ctx;
  ctx.env = &env;
  return adapter.plan_key(ctx);
}

TEST(PlanKey, RenamedButIsomorphicProgramHits) {
  const Graph g = cycle_graph(5);
  const Env a = MaxCutProblem{g}.encode();
  Env b;
  const auto vars = b.new_vars(5, "totally_different_name");
  for (const auto& [u, v] : g.edges()) {
    b.nck({vars[u], vars[v]}, {1}, ConstraintKind::kSoft);
  }
  const AnnealBackendOptions options = small_anneal_options();
  const Device device = small_device();
  EXPECT_EQ(anneal_key(a, options, device), anneal_key(b, options, device));
}

TEST(PlanKey, OneConstraintCoefficientMisses) {
  const Graph g = cycle_graph(5);
  const Env a = MaxCutProblem{g}.encode();
  Env b;
  const auto vars = b.new_vars(5, "v");
  bool first = true;
  for (const auto& [u, v] : g.edges()) {
    // One constraint selects {0, 2} instead of {1}: same variables, same
    // arity, different selection set — a different QUBO synthesis.
    if (first) {
      b.nck({vars[u], vars[v]}, {0, 2}, ConstraintKind::kSoft);
      first = false;
    } else {
      b.nck({vars[u], vars[v]}, {1}, ConstraintKind::kSoft);
    }
  }
  const AnnealBackendOptions options = small_anneal_options();
  const Device device = small_device();
  EXPECT_NE(anneal_key(a, options, device), anneal_key(b, options, device));
}

TEST(PlanKey, OneTopologyEdgeMisses) {
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const AnnealBackendOptions options = small_anneal_options();
  const Device device = small_device();

  Graph g(device.graph.num_vertices());
  bool dropped = false;
  for (const auto& [u, v] : device.graph.edges()) {
    if (!dropped) {
      dropped = true;  // drop exactly one coupler
      continue;
    }
    g.add_edge(u, v);
  }
  const Device tweaked = perfect_device(device.name, g);
  EXPECT_NE(anneal_key(env, options, device),
            anneal_key(env, options, tweaked));

  // A single inoperable qubit (same graph) must also miss: dead-qubit
  // recovery relies on the degraded mask forcing a re-prepare.
  const Device degraded = device.degraded({3});
  EXPECT_NE(device.digest(), degraded.digest());
  EXPECT_NE(anneal_key(env, options, device),
            anneal_key(env, options, degraded));
}

/// The streaming hash plan keys ran over the whole topology before devices
/// carried a digest: a tag, the graph, then the operable mask packed 64
/// bits to a word and its length.
Fingerprint streaming_device_hash(const Device& device) {
  Fingerprint fp;
  fp.mix(std::string("device"));
  mix_graph(fp, device.graph);
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (const bool up : device.operable()) {
    word = (word << 1) | (up ? 1u : 0u);
    if (++filled == 64) {
      fp.mix(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) fp.mix(word);
  fp.mix(device.operable().size());
  return fp;
}

TEST(PlanKey, DeviceDigestIsTheStreamingHashOfGraphAndMask) {
  const Device device = small_device();
  EXPECT_EQ(device.digest(), streaming_device_hash(device));
  const Device degraded = device.degraded({3, 17});
  EXPECT_EQ(degraded.digest(), streaming_device_hash(degraded));
  const Device& shared = shared_advantage_4_1();
  EXPECT_EQ(shared.digest(), streaming_device_hash(shared));
}

TEST(PlanKey, OnePrepareOptionMissesButExecuteOptionsHit) {
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const Device device = small_device();
  const AnnealBackendOptions base = small_anneal_options();

  AnnealBackendOptions chain = base;
  chain.chain_strength = base.chain_strength + 0.25;
  EXPECT_NE(anneal_key(env, base, device), anneal_key(env, chain, device));

  AnnealBackendOptions margin = base;
  margin.compile.hard_margin = base.compile.hard_margin + 1.0;
  EXPECT_NE(anneal_key(env, base, device), anneal_key(env, margin, device));

  // Execute-only knobs must NOT change the key: degraded retries and
  // noise sweeps reuse the cached embedding.
  AnnealBackendOptions reads = base;
  reads.sampler.num_reads = 7;
  reads.sampler.ice_sigma = base.sampler.ice_sigma + 0.01;
  EXPECT_EQ(anneal_key(env, base, device), anneal_key(env, reads, device));
}

TEST(PlanKey, CircuitDepthIsPrepareShotsAreExecute) {
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const Graph coupling = brooklyn_coupling();
  CircuitBackendOptions base;

  const auto key_of = [&](const CircuitBackendOptions& options) {
    CircuitAdapter adapter(&options, &coupling);
    PrepareContext ctx;
    ctx.env = &env;
    return adapter.plan_key(ctx);
  };

  CircuitBackendOptions deeper = base;
  deeper.qaoa.p += 1;
  EXPECT_NE(key_of(base), key_of(deeper));

  CircuitBackendOptions shots = base;
  shots.qaoa.shots = 17;
  EXPECT_EQ(key_of(base), key_of(shots));
}

TEST(PlanKey, BackendsNeverCollide) {
  // The same program on different backends must map to different keys
  // (the kind tag leads the fingerprint).
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const AnnealBackendOptions anneal_options = small_anneal_options();
  const Device device = small_device();
  const Graph coupling = brooklyn_coupling();
  CircuitBackendOptions circuit_options;
  CircuitAdapter circuit(&circuit_options, &coupling);
  PrepareContext ctx;
  ctx.env = &env;
  EXPECT_NE(anneal_key(env, anneal_options, device), circuit.plan_key(ctx));
}

TEST(PlanKey, AnnealerKeyIsPinned) {
  // The annealer key seeds prepare()'s embedding RNG, so a change to what
  // it mixes silently re-draws every embedding. A field dropped from
  // AnnealAdapter::plan_key must leave its constant behind to keep this
  // value.
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const AnnealBackendOptions options;
  const Fingerprint key = anneal_key(env, options, shared_advantage_4_1());
  EXPECT_EQ(key.lo(), 0x80536ec1fe5ea39full);
  EXPECT_EQ(key.hi(), 0xada86b0917fa3472ull);
}

// ----------------------------------------------------------- LRU cache

struct FakePlan final : Plan {
  explicit FakePlan(std::size_t size_, int tag_ = 0) : size(size_), tag(tag_) {}
  std::size_t size;
  int tag;
  std::size_t bytes() const noexcept override { return size; }
};

Fingerprint key_of(int i) {
  Fingerprint fp;
  fp.mix(i);
  return fp;
}

TEST(PlanCacheTest, HitRefreshesAndMissCounts) {
  PlanCache cache(1024);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(1), std::make_shared<FakePlan>(100));
  const PlanPtr hit = cache.find(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->bytes(), 100u);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(PlanCacheTest, LruEvictionUnderTinyBudget) {
  PlanCache cache(250);
  cache.insert(key_of(1), std::make_shared<FakePlan>(100, 1));
  cache.insert(key_of(2), std::make_shared<FakePlan>(100, 2));
  // Touch 1 so 2 becomes the least recently used.
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  cache.insert(key_of(3), std::make_shared<FakePlan>(100, 3));

  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.find(key_of(3)), nullptr);

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 250u);
}

TEST(PlanCacheTest, OversizedPlanStillUsableOnce) {
  PlanCache cache(50);
  cache.insert(key_of(1), std::make_shared<FakePlan>(500));
  // The current solve still gets to use it...
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  // ...but the next insert pushes it out.
  cache.insert(key_of(2), std::make_shared<FakePlan>(10));
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(2)), nullptr);
}

TEST(PlanCacheTest, ZeroBudgetMeansUnbounded) {
  PlanCache cache(0);
  for (int i = 0; i < 64; ++i) {
    cache.insert(key_of(i), std::make_shared<FakePlan>(1 << 20));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, 64u);
}

TEST(PlanCacheTest, ReplacementAccountsTheNewSizeOnly) {
  // Re-inserting an existing key must swap the byte accounting, not sum
  // it — drift here would slowly shrink the effective budget.
  PlanCache cache(1024);
  cache.insert(key_of(1), std::make_shared<FakePlan>(100));
  cache.insert(key_of(1), std::make_shared<FakePlan>(300));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 300u);
  EXPECT_EQ(cache.stats().inserts, 2u);
  cache.insert(key_of(1), std::make_shared<FakePlan>(40));
  EXPECT_EQ(cache.stats().bytes, 40u);
}

TEST(PlanCacheTest, EvictionChurnStressKeepsAccountingExact) {
  // 8 threads hammer a byte budget small enough that almost every insert
  // evicts: the shared-state invariants must hold exactly at the end —
  // every lookup counted exactly one hit or miss, resident bytes within
  // budget (every plan individually fits), and no deadlock/livelock. The
  // loop runs twice: through find()/insert(), and through get_or_build(),
  // whose trace counters must then agree with stats() as well.
  constexpr std::size_t kBudget = 4096;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 64;
  for (const bool via_get_or_build : {false, true}) {
    SCOPED_TRACE(via_get_or_build ? "get_or_build" : "find/insert");
    PlanCache cache(kBudget);
    obs::Trace trace;  // shared: the registry is thread-safe
    std::atomic<std::size_t> lookups{0};
    std::atomic<std::size_t> observed_hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::size_t my_lookups = 0;
        std::size_t my_hits = 0;
        for (int i = 0; i < kOpsPerThread; ++i) {
          const int k = (t * 31 + i * 17) % kKeySpace;
          // Sizes vary so replacement accounting is exercised too; all
          // stay well under the budget so the bytes bound must hold.
          const auto build = [k] {
            return std::make_shared<FakePlan>(64 + (k % 7) * 128, k);
          };
          ++my_lookups;
          if (via_get_or_build) {
            bool built = false;
            const PlanPtr plan = cache.get_or_build(key_of(k), &trace, [&] {
              built = true;
              return build();
            });
            EXPECT_EQ(static_cast<const FakePlan&>(*plan).tag, k);
            if (!built) ++my_hits;
          } else if (cache.find(key_of(k)) != nullptr) {
            ++my_hits;
          } else {
            cache.insert(key_of(k), build());
          }
        }
        lookups.fetch_add(my_lookups);
        observed_hits.fetch_add(my_hits);
      });
    }
    for (std::thread& th : threads) th.join();

    const PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups.load())
        << "every lookup must count exactly one hit or miss";
    EXPECT_EQ(stats.hits, observed_hits.load());
    EXPECT_LE(stats.bytes, kBudget);
    EXPECT_GE(stats.entries, 1u);
    EXPECT_GT(stats.evictions, 0u) << "the budget should force churn";
    const obs::TraceData data = trace.snapshot();
    const double traced_hits =
        via_get_or_build ? static_cast<double>(stats.hits) : 0.0;
    const double traced_misses =
        via_get_or_build ? static_cast<double>(stats.misses) : 0.0;
    EXPECT_EQ(data.counter("plan_cache.hit"), traced_hits);
    EXPECT_EQ(data.counter("plan_cache.miss"), traced_misses);
    // Resident entries must re-sum to the byte gauge: re-find every key
    // (single-threaded now) and cross-check.
    std::size_t resident = 0;
    std::size_t resident_bytes = 0;
    for (int k = 0; k < kKeySpace; ++k) {
      if (const PlanPtr p = cache.find(key_of(k))) {
        ++resident;
        resident_bytes += p->bytes();
      }
    }
    EXPECT_EQ(resident, stats.entries);
    EXPECT_EQ(resident_bytes, stats.bytes);
  }
}

// ------------------------------------------------------- get_or_build

TEST(PlanCacheTest, GetOrBuildHitDoesNotBuild) {
  PlanCache cache(1024);
  cache.insert(key_of(1), std::make_shared<FakePlan>(100, 7));
  obs::Trace trace;
  int builds = 0;
  const PlanPtr plan = cache.get_or_build(key_of(1), &trace, [&] {
    ++builds;
    return std::make_shared<FakePlan>(1, 0);
  });
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(static_cast<const FakePlan&>(*plan).tag, 7);
  EXPECT_EQ(builds, 0);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 1u);
  const obs::TraceData data = trace.snapshot();
  EXPECT_EQ(data.counter("plan_cache.hit"), 1.0);
  EXPECT_EQ(data.counter("plan_cache.miss"), 0.0);
}

TEST(PlanCacheTest, GetOrBuildMissBuildsOnceAndInserts) {
  PlanCache cache(1024);
  obs::Trace trace;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<FakePlan>(100, 3);
  };
  const PlanPtr first = cache.get_or_build(key_of(1), &trace, build);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(builds, 1);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);

  // The inserted plan serves the next lookup without building again.
  EXPECT_EQ(cache.get_or_build(key_of(1), &trace, build), first);
  EXPECT_EQ(builds, 1);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  const obs::TraceData data = trace.snapshot();
  EXPECT_EQ(data.counter("plan_cache.hit"), 1.0);
  EXPECT_EQ(data.counter("plan_cache.miss"), 1.0);
}

TEST(PlanCacheTest, GetOrBuildNeverCachesANullPlan) {
  // A failed prepare returns null: nothing is cached, so the next call
  // builds again.
  PlanCache cache(1024);
  obs::Trace trace;
  int builds = 0;
  const auto fail = [&] {
    ++builds;
    return PlanPtr{};
  };
  EXPECT_EQ(cache.get_or_build(key_of(1), &trace, fail), nullptr);
  EXPECT_EQ(cache.get_or_build(key_of(1), &trace, fail), nullptr);
  EXPECT_EQ(builds, 2);
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
  const obs::TraceData data = trace.snapshot();
  EXPECT_EQ(data.counter("plan_cache.miss"), 2.0);
  EXPECT_EQ(data.counter("plan_cache.hit"), 0.0);
}

TEST(PlanCacheTest, ClearDropsEntriesKeepsCounters) {
  PlanCache cache(1024);
  cache.insert(key_of(1), std::make_shared<FakePlan>(10));
  ASSERT_NE(cache.find(key_of(1)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  EXPECT_GE(cache.stats().hits, 1u);
}


// ------------------------------------------- shared synthesis cache

/// Runs `threads` engines, each on its own thread and attached to `cache`'s
/// synthesis cache, and starts `body(thread index, engine)` on all of them
/// together behind a barrier.
template <typename Body>
void race_engines(PlanCache& cache, int threads, Body body) {
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SynthEngine engine;
      engine.set_shared_cache(&cache.synth_cache());
      start.arrive_and_wait();
      body(t, engine);
    });
  }
  for (std::thread& th : pool) th.join();
}

TEST(SharedSynthCacheTest, ConcurrentEnginesSynthesizeAPatternOnce) {
  // XOR of three: a non-contiguous selection, so only a general
  // synthesizer (Z3 or LP) handles it.
  const ConstraintPattern xor3({1, 1, 1}, {0, 2});
  constexpr int kThreads = 8;
  PlanCache cache;
  std::vector<std::string> qubos(kThreads);
  std::vector<SynthEngineStats> stats(kThreads);
  race_engines(cache, kThreads, [&](int t, SynthEngine& engine) {
    qubos[static_cast<std::size_t>(t)] =
        engine.synthesize(xor3).qubo.to_string();
    stats[static_cast<std::size_t>(t)] = engine.stats();
  });

  std::size_t general_calls = 0, shared_hits = 0;
  for (const SynthEngineStats& s : stats) {
    general_calls += s.z3_calls + s.lp_calls;
    shared_hits += s.shared_hits;
  }
  EXPECT_EQ(general_calls, 1u);
  EXPECT_EQ(shared_hits, static_cast<std::size_t>(kThreads - 1));
  for (const std::string& q : qubos) EXPECT_EQ(q, qubos.front());
  const PlanCacheStats after = cache.stats();
  EXPECT_EQ(after.synth_misses, 1u);
  EXPECT_EQ(after.synth_hits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_LE(after.synth_waits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(cache.synth_cache().stats().entries, 1u);
}

TEST(SharedSynthCacheTest, AFailedSynthesisReleasesItsClaim) {
  // Eleven distinct variables exceed every general synthesizer's budget
  // and {0, 2} has no closed form: every engine must throw, each in its
  // turn (a claimant that throws hands the key to the next waiter), and
  // nothing may be cached.
  const ConstraintPattern wide(std::vector<unsigned>(11, 1), {0, 2});
  constexpr int kThreads = 8;
  PlanCache cache;
  std::atomic<int> threw{0};
  race_engines(cache, kThreads, [&](int, SynthEngine& engine) {
    try {
      engine.synthesize(wide);
    } catch (const std::runtime_error&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), kThreads);
  const SharedSynthCache::Stats stats = cache.synth_cache().stats();
  EXPECT_EQ(stats.misses, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

}  // namespace
}  // namespace nck::backend
