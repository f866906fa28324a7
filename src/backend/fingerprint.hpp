// Content fingerprints for the plan cache (DESIGN.md §3d). A Fingerprint
// is a 128-bit FNV-1a-style accumulator fed with the canonicalized inputs
// of a backend's prepare() stage: the program structure, the hardware
// topology, and every prepare-relevant option. Two fingerprints collide
// only if both 64-bit lanes collide, which the cache treats as never.
//
// Canonicalization rules: variable *names* are erased (a renamed but
// otherwise identical program hashes the same), but variable *ids* are
// kept — cached plans store artifacts indexed by id, so only programs
// whose constraint structure matches id-for-id may share a plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nck {

class Env;
class Graph;
class Device;

namespace backend {

class Fingerprint {
 public:
  void mix_bytes(const void* data, std::size_t n) noexcept;
  void mix(std::uint64_t v) noexcept;
  void mix(std::int64_t v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix(std::uint32_t v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix(bool v) noexcept { mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  /// Hashes the bit pattern; NaNs are normalized so any NaN hashes alike.
  void mix(double v) noexcept;
  void mix(const std::string& s) noexcept;

  std::uint64_t lo() const noexcept { return lo_; }
  std::uint64_t hi() const noexcept { return hi_; }

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) noexcept {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) noexcept {
    return !(a == b);
  }

  struct Hasher {
    std::size_t operator()(const Fingerprint& f) const noexcept {
      return static_cast<std::size_t>(f.lo_ ^ (f.hi_ * 0x9E3779B97F4A7C15ull));
    }
  };

 private:
  // FNV-1a offset bases for the two lanes; the second lane starts from a
  // different basis so the lanes decorrelate after the first byte.
  std::uint64_t lo_ = 0xCBF29CE484222325ull;
  std::uint64_t hi_ = 0x84222325CBF29CE4ull;
};

/// Canonical program structure: variable count plus every constraint's
/// (hardness, canonical collection, selection set), mixed as a sorted
/// multiset of per-constraint digests so constraint *order* is erased —
/// permuted-but-identical programs share PlanCache entries. Names are
/// ignored.
void mix_env(Fingerprint& fp, const Env& env);

/// Edge list of a graph (vertex count + sorted adjacency).
void mix_graph(Fingerprint& fp, const Graph& graph);

/// Topology of a device: the digest of its graph and operable-qubit mask
/// that the device took when it was built (Device::digest), so a single
/// dead qubit changes the fingerprint (and forces a re-prepare) without
/// rehashing every coupler on every key.
void mix_device(Fingerprint& fp, const Device& device);

/// Bit vector, packed 64 bits to a word, then its length.
void mix_bits(Fingerprint& fp, const std::vector<bool>& bits);

}  // namespace backend
}  // namespace nck
