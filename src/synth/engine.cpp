#include "synth/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "synth/builtin.hpp"
#include "synth/lp_synth.hpp"
#include "synth/verify.hpp"
#if NCK_HAVE_Z3
#include "synth/z3_synth.hpp"
#endif

namespace nck {

SynthEngine::SynthEngine(SynthEngineOptions options) : options_(options) {
  builtin_ = std::make_unique<BuiltinSynthesizer>();
#if NCK_HAVE_Z3
  Z3SynthOptions z3;
  z3.max_ancillas = options_.max_ancillas;
  general_.push_back(std::make_unique<Z3Synthesizer>(z3));
#endif
  LpSynthOptions lp;
  lp.max_ancillas = options_.max_ancillas;
  general_.push_back(std::make_unique<LpSynthesizer>(lp));
}

std::size_t SynthEngine::general_var_budget() const noexcept {
  std::size_t budget = 0;
  for (const auto& synth : general_) {
    budget = std::max(budget, synth->max_vars());
  }
  return budget;
}

SynthesizedQubo SynthEngine::synthesize_uncached(
    const ConstraintPattern& pattern) {
  if (options_.use_builtin) {
    if (auto result = builtin_->synthesize(pattern)) {
      ++stats_.builtin_hits;
      return std::move(*result);
    }
  }
  for (const auto& synth : general_) {
    if (synth->name() == "z3") {
      ++stats_.z3_calls;
    } else {
      ++stats_.lp_calls;
    }
    if (auto result = synth->synthesize(pattern)) {
      return std::move(*result);
    }
  }
  throw std::runtime_error("SynthEngine: no synthesizer handled pattern " +
                           pattern.key());
}

SynthesizedQubo SynthEngine::synthesize_checked(
    const ConstraintPattern& pattern) {
  SynthesizedQubo result = synthesize_uncached(pattern);
  if (options_.verify) {
    const SynthesisCheck check = verify_synthesis(pattern, result);
    if (!check.ok) {
      throw std::runtime_error("SynthEngine: verification failed for " +
                               pattern.key() + " (" + result.method +
                               "): " + check.error);
    }
  }
  return result;
}

SynthesizedQubo SynthEngine::synthesize(const ConstraintPattern& pattern) {
  ++stats_.requests;
  if (!options_.use_cache) return synthesize_checked(pattern);
  const std::string key = pattern.key();
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  if (shared_ == nullptr) {
    return cache_.emplace(key, synthesize_checked(pattern)).first->second;
  }
  SharedSynthCache::Result found = shared_->get_or_synthesize(
      key, [&] { return synthesize_checked(pattern); });
  if (found.hit) {
    ++stats_.cache_hits;
    ++stats_.shared_hits;
  }
  return cache_.emplace(key, std::move(found.qubo)).first->second;
}

}  // namespace nck
