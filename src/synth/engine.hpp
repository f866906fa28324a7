// Synthesis engine: the front end the compiler calls per constraint.
// Tries closed-form constructions first, then the general synthesizers
// (Z3 when built in, then LP), and memoizes by canonical pattern. The
// paper (Section VIII-C) observes that *not* caching symmetric constraints
// costs 40-50x in compile time; the cache here is what
// `bench_ablation_cache` turns off to reproduce that.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "synth/shared_cache.hpp"
#include "synth/synthesizer.hpp"

namespace nck {

struct SynthEngineOptions {
  bool use_builtin = true;   // closed forms for contiguous selection sets
  bool use_cache = true;     // memoize per canonical pattern
  /// The general synthesizers' ancilla budget; tests lower it to reach
  /// synthesis failure (NCK-Q000).
  std::size_t max_ancillas = kDefaultMaxAncillas;
};

struct SynthEngineStats {
  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  std::size_t shared_hits = 0;  // served from an attached SharedSynthCache
  std::size_t builtin_hits = 0;
  std::size_t z3_calls = 0;
  std::size_t lp_calls = 0;
};

class SynthEngine {
 public:
  explicit SynthEngine(SynthEngineOptions options = {});

  /// Synthesizes (or recalls) the QUBO for a pattern. Returned by value:
  /// results stay valid across subsequent calls regardless of the cache
  /// setting (a reference into engine-owned storage was silently
  /// invalidated by the next uncached call). Throws std::runtime_error if
  /// no synthesizer succeeds within the ancilla budget.
  SynthesizedQubo synthesize(const ConstraintPattern& pattern);

  const SynthEngineStats& stats() const noexcept { return stats_; }

  /// Largest d + a any attached *general* synthesizer accepts (the max over
  /// their max_vars() budgets). Constraints with more distinct variables
  /// than this that also miss the closed forms cannot be synthesized; the
  /// NCK-P008 lint pass uses this to reject them before compile.
  std::size_t general_var_budget() const noexcept;

  /// Whether closed-form constructions are enabled (contiguous selection
  /// sets bypass the general budget entirely when they are).
  bool builtin_enabled() const noexcept { return options_.use_builtin; }

  /// Attaches a cross-engine synthesis memo (may be null to detach). On a
  /// local-cache miss the engine goes through the shared cache, which
  /// synthesizes each pattern once (single-flight: an engine whose pattern
  /// another engine is synthesizing waits for that result). The cache must
  /// outlive the engine; the engine itself stays single-threaded.
  void set_shared_cache(SharedSynthCache* shared) noexcept { shared_ = shared; }

  /// Drops the general synthesizers' solver sessions (the Z3 context, 17-19
  /// MiB and 10-14 ms to build) and returns whether one was held. Patterns
  /// stay cached; the next general synthesis builds a fresh session.
  bool release_sessions() noexcept;

 private:
  SynthesizedQubo synthesize_uncached(const ConstraintPattern& pattern);

  SynthEngineOptions options_;
  SynthEngineStats stats_;
  std::vector<std::unique_ptr<ConstraintSynthesizer>> general_;
  std::unique_ptr<ConstraintSynthesizer> builtin_;
  std::unordered_map<std::string, SynthesizedQubo> cache_;
  SharedSynthCache* shared_ = nullptr;
};

}  // namespace nck
