#include "backend/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "anneal/topology.hpp"
#include "core/env.hpp"
#include "graph/graph.hpp"

namespace nck::backend {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
}

void Fingerprint::mix_bytes(const void* data, std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    lo_ = (lo_ ^ bytes[i]) * kFnvPrime;
    hi_ = (hi_ ^ bytes[i]) * kFnvPrime;
    // Cross-feed the lanes so they stay decorrelated even on inputs that
    // differ only in late bytes.
    hi_ += lo_ >> 32;
  }
}

void Fingerprint::mix(std::uint64_t v) noexcept {
  unsigned char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  mix_bytes(bytes, sizeof(bytes));
}

void Fingerprint::mix(double v) noexcept {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  if (v == 0.0) v = 0.0;  // merge -0.0 with +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void Fingerprint::mix(const std::string& s) noexcept {
  mix(static_cast<std::uint64_t>(s.size()));
  mix_bytes(s.data(), s.size());
}

void mix_env(Fingerprint& fp, const Env& env) {
  fp.mix(std::string("env"));
  fp.mix(env.num_vars());
  fp.mix(env.num_constraints());
  // Hash each constraint into its own fingerprint and mix the digests in
  // sorted order: a program is a conjunction plus a soft-count objective,
  // both order-independent, so permuted-but-identical programs must key the
  // same PlanCache entry. Sorting a digest multiset (not a set) keeps
  // repeated soft constraints — which double their weight — distinct.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  digests.reserve(env.num_constraints());
  for (const Constraint& c : env.constraints()) {
    Fingerprint cf;
    cf.mix(c.soft());
    // distinct_vars() is the constraint's canonical variable order, so two
    // constraints built from permuted-but-equal collections hash alike.
    const auto& vars = c.distinct_vars();
    cf.mix(vars.size());
    for (VarId v : vars) cf.mix(static_cast<std::uint64_t>(v));
    cf.mix(c.cardinality());
    const ConstraintPattern pattern = c.pattern();
    cf.mix(pattern.key());
    digests.emplace_back(cf.lo(), cf.hi());
  }
  std::sort(digests.begin(), digests.end());
  for (const auto& [lo, hi] : digests) {
    fp.mix(lo);
    fp.mix(hi);
  }
}

void mix_graph(Fingerprint& fp, const Graph& graph) {
  fp.mix(std::string("graph"));
  fp.mix(graph.num_vertices());
  fp.mix(graph.num_edges());
  for (const auto& [u, v] : graph.edges()) {
    fp.mix(static_cast<std::uint64_t>(u));
    fp.mix(static_cast<std::uint64_t>(v));
  }
}

void mix_device(Fingerprint& fp, const Device& device) {
  fp.mix(std::string("device"));
  fp.mix(device.digest().lo());
  fp.mix(device.digest().hi());
}

void mix_bits(Fingerprint& fp, const std::vector<bool>& bits) {
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    word = (word << 1) | (bits[i] ? 1u : 0u);
    if (++filled == 64) {
      fp.mix(word);
      word = 0;
      filled = 0;
    }
  }
  if (filled > 0) fp.mix(word);
  fp.mix(bits.size());
}

}  // namespace nck::backend
