#include "circuit/statevector.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nck {
namespace {

using Amplitude = StateVector::Amplitude;

// The mixer walks qubits 0..kBlockQubits-1 one block of 2^kBlockQubits
// amplitudes (32 KiB) at a time, so each block stays in L1 across its
// qubits, then the higher qubits over column tiles of kTile amplitudes:
// the tile's slice of every row of 2^kBlockQubits amplitudes. The rows lie
// 32 KiB apart and so share L1 sets; with 16-amplitude tiles those qubits
// ran at L2 speed with a stall at every row, and 64 halved the whole
// mixer's time at 16 qubits.
constexpr std::size_t kBlockQubits = 11;
constexpr std::size_t kTile = 64;

// Vector types of the mixer at W amplitudes per vector: F holds W
// amplitudes as (re, im) pairs, 128 bits at W = 1 (the baseline ISA) and
// 256 bits at W = 2 (AVX2). Amplitudes are read and written only through
// FMem, whose aligned(8) keeps the AVX2 code from emitting aligned moves on
// a std::vector that is only 16-byte aligned (anneal/packed.cpp has the
// same traps). Vectors never cross a call boundary: the kernel is
// always_inline into each entry below.
template <std::size_t W>
struct Amps;

template <>
struct Amps<1> {
  typedef double F __attribute__((vector_size(16)));
  typedef double FMem __attribute__((vector_size(16), aligned(8), may_alias));
};

#if defined(__x86_64__) || defined(__i386__)
template <>
struct Amps<2> {
  typedef double F __attribute__((vector_size(32)));
  typedef double FMem __attribute__((vector_size(32), aligned(8), may_alias));
};
#endif

// The real-arithmetic RX butterfly on W amplitudes per vector. For a pair
// a0 = (x0, y0), a1 = (x1, y1) of one qubit,
//   a0' = (c x0 + s y1, c y0 - s x1),  a1' = (c x1 + s y0, c y1 - s x0):
// exactly the products and sums of c*a0 + (-i s)*a1 and (-i s)*a0 + c*a1,
// whose other terms are products with the zero parts of c and -i s and
// can change only the sign of an exact zero. Each lane computes
// c * own + s' * partner with s' = (s, -s) per amplitude and partner the
// other amplitude's (im, re): (-s) * x is -(s * x) exactly, since rounding
// to nearest is symmetric, and u + (-v) is u - v. Only multiplies and adds,
// no FMA, so every value rounds as in the scalar loop.
template <std::size_t W>
struct RxKernel {
  using F = typename Amps<W>::F;
  using FMem = typename Amps<W>::FMem;

  F c;
  F s;

  [[gnu::always_inline]] RxKernel(double cos_half, double sin_half) noexcept {
    for (std::size_t i = 0; i < 2 * W; ++i) {
      c[i] = cos_half;
      s[i] = i % 2 == 0 ? sin_half : -sin_half;
    }
  }

  [[gnu::always_inline]] static void load(F& v, const Amplitude* p) noexcept {
    v = *reinterpret_cast<const FMem*>(p);
  }
  [[gnu::always_inline]] static void store(Amplitude* p, const F& v) noexcept {
    *reinterpret_cast<FMem*>(p) = v;
  }
  // (x, y) -> (y, x) in every amplitude.
  [[gnu::always_inline]] static void swap_parts(F& out, const F& v) noexcept {
    if constexpr (W == 1) {
      out = __builtin_shufflevector(v, v, 1, 0);
    } else {
      out = __builtin_shufflevector(v, v, 1, 0, 3, 2);
    }
  }

  // One qubit's butterfly on W pairs whose partners sit at least W
  // amplitudes apart, lo and hi in registers.
  [[gnu::always_inline]] void butterfly(F& lo, F& hi) const noexcept {
    F swapped_lo, swapped_hi;
    swap_parts(swapped_lo, lo);
    swap_parts(swapped_hi, hi);
    lo = c * lo + s * swapped_hi;
    hi = c * hi + s * swapped_lo;
  }

  // Qubit q on (p0, p1) and (p2, p3), then qubit q + 1 on (p0, p2) and
  // (p1, p3), where p1 = p0 + 2^q and p2 = p0 + 2^(q+1): two qubits per
  // load and store, in qubit order.
  [[gnu::always_inline]] void quad(Amplitude* p0, Amplitude* p1,
                                   Amplitude* p2,
                                   Amplitude* p3) const noexcept {
    F a0, a1, a2, a3;
    load(a0, p0);
    load(a1, p1);
    load(a2, p2);
    load(a3, p3);
    butterfly(a0, a1);
    butterfly(a2, a3);
    butterfly(a0, a2);
    butterfly(a1, a3);
    store(p0, a0);
    store(p1, a1);
    store(p2, a2);
    store(p3, a3);
  }

  [[gnu::always_inline]] void pair(Amplitude* lo, Amplitude* hi) const noexcept {
    F a, b;
    load(a, lo);
    load(b, hi);
    butterfly(a, b);
    store(lo, a);
    store(hi, b);
  }

  // Qubit 0 at W = 2: both amplitudes of the pair share one vector, and
  // (x0, y0, x1, y1) -> (y1, x1, y0, x0) brings each its partner.
  [[gnu::always_inline]] void adjacent(Amplitude* p) const noexcept {
    F a;
    load(a, p);
    const F partner = __builtin_shufflevector(a, a, 3, 2, 1, 0);
    const F out = c * a + s * partner;
    store(p, out);
  }

  // Qubits 0..k-1, in order, on the block of 2^k amplitudes at p: two
  // qubits per pass, then one if k leaves it over. Qubit q's partners sit
  // d = 2^q amplitudes apart.
  [[gnu::always_inline]] void block(Amplitude* p, std::size_t k) const noexcept {
    const std::size_t size = std::size_t{1} << k;
    std::size_t q = 0;
    if constexpr (W == 2) {
      for (std::size_t i = 0; i < size; i += 2) adjacent(p + i);
      q = 1;
    }
    for (; q + 1 < k; q += 2) {
      const std::size_t d = std::size_t{1} << q;
      for (std::size_t g = 0; g < size; g += 4 * d) {
        for (std::size_t i = g; i < g + d; i += W) {
          quad(p + i, p + i + d, p + i + 2 * d, p + i + 3 * d);
        }
      }
    }
    if (q < k) {
      const std::size_t d = std::size_t{1} << q;
      for (std::size_t g = 0; g < size; g += 2 * d) {
        for (std::size_t i = g; i < g + d; i += W) pair(p + i, p + i + d);
      }
    }
  }

  // Qubits k..n-1, in order, on the kTile amplitudes at column `col` of
  // every row of 2^k amplitudes, with the same passes as block().
  [[gnu::always_inline]] void tile(Amplitude* amps, std::size_t col,
                                   std::size_t k,
                                   std::size_t n) const noexcept {
    const std::size_t row = std::size_t{1} << k;
    const std::size_t size = std::size_t{1} << n;
    Amplitude* const p = amps + col;
    std::size_t q = k;
    for (; q + 1 < n; q += 2) {
      const std::size_t d = std::size_t{1} << q;
      for (std::size_t g = 0; g < size; g += 4 * d) {
        for (std::size_t r = g; r < g + d; r += row) {
          for (std::size_t i = r; i < r + kTile; i += W) {
            quad(p + i, p + i + d, p + i + 2 * d, p + i + 3 * d);
          }
        }
      }
    }
    if (q < n) {
      const std::size_t d = std::size_t{1} << q;
      for (std::size_t g = 0; g < size; g += 2 * d) {
        for (std::size_t r = g; r < g + d; r += row) {
          for (std::size_t i = r; i < r + kTile; i += W) {
            pair(p + i, p + i + d);
          }
        }
      }
    }
  }
};

// One OpenMP work item of rx_layer: block b (qubits 0..k-1) or column
// tile t (qubits k..n-1). The two widths compile the kernel under their
// own target; the AVX2 one has no FMA.
using MixerItem = void(Amplitude* amps, std::size_t item, std::size_t k,
                       std::size_t n, double c, double s);

void rx_block_scalar(Amplitude* amps, std::size_t b, std::size_t k,
                     std::size_t /*n*/, double c, double s) {
  RxKernel<1>(c, s).block(amps + (b << k), k);
}

void rx_tile_scalar(Amplitude* amps, std::size_t t, std::size_t k,
                    std::size_t n, double c, double s) {
  RxKernel<1>(c, s).tile(amps, t * kTile, k, n);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void rx_block_avx2(Amplitude* amps, std::size_t b,
                                           std::size_t k, std::size_t /*n*/,
                                           double c, double s) {
  RxKernel<2>(c, s).block(amps + (b << k), k);
}

[[gnu::target("avx2")]] void rx_tile_avx2(Amplitude* amps, std::size_t t,
                                          std::size_t k, std::size_t n,
                                          double c, double s) {
  RxKernel<2>(c, s).tile(amps, t * kTile, k, n);
}
#endif

}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits > kMaxQubits) {
    throw std::invalid_argument("StateVector: too many qubits");
  }
  amps_.assign(1ull << num_qubits, Amplitude(0.0, 0.0));
  amps_[0] = Amplitude(1.0, 0.0);
}

void StateVector::apply_1q(std::size_t q, const Amplitude u[4]) {
  const std::uint64_t stride = 1ull << q;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
  const Amplitude u00 = u[0], u01 = u[1], u10 = u[2], u11 = u[3];
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if (idx & stride) continue;  // handle each pair once, from the 0 side
    const Amplitude a0 = amps_[idx];
    const Amplitude a1 = amps_[idx | stride];
    amps_[idx] = u00 * a0 + u01 * a1;
    amps_[idx | stride] = u10 * a0 + u11 * a1;
  }
}

void StateVector::h(std::size_t q) {
  const double s = 1.0 / std::sqrt(2.0);
  const Amplitude u[4] = {{s, 0}, {s, 0}, {s, 0}, {-s, 0}};
  apply_1q(q, u);
}

void StateVector::x(std::size_t q) {
  const Amplitude u[4] = {{0, 0}, {1, 0}, {1, 0}, {0, 0}};
  apply_1q(q, u);
}

void StateVector::rx(std::size_t q, double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const Amplitude u[4] = {{c, 0}, {0, -s}, {0, -s}, {c, 0}};
  apply_1q(q, u);
}

void StateVector::ry(std::size_t q, double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  const Amplitude u[4] = {{c, 0}, {-s, 0}, {s, 0}, {c, 0}};
  apply_1q(q, u);
}

void StateVector::rz(std::size_t q, double theta) {
  const Amplitude e0 = std::polar(1.0, -theta / 2);
  const Amplitude e1 = std::polar(1.0, theta / 2);
  const std::uint64_t stride = 1ull << q;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    amps_[idx] *= (idx & stride) ? e1 : e0;
  }
}

void StateVector::cx(std::size_t control, std::size_t target) {
  const std::uint64_t cbit = 1ull << control;
  const std::uint64_t tbit = 1ull << target;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & cbit) && !(idx & tbit)) {
      std::swap(amps_[idx], amps_[idx | tbit]);
    }
  }
}

void StateVector::cz(std::size_t a, std::size_t b) {
  const std::uint64_t mask = (1ull << a) | (1ull << b);
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & mask) == mask) amps_[idx] = -amps_[idx];
  }
}

void StateVector::rzz(std::size_t a, std::size_t b, double theta) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const Amplitude even = std::polar(1.0, -theta / 2);  // Z.Z eigenvalue +1
  const Amplitude odd = std::polar(1.0, theta / 2);    // Z.Z eigenvalue -1
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    const bool parity = ((idx & abit) != 0) != ((idx & bbit) != 0);
    amps_[idx] *= parity ? odd : even;
  }
}

void StateVector::xy(std::size_t a, std::size_t b, double theta) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const double c = std::cos(theta / 2);
  const Amplitude ms(0.0, -std::sin(theta / 2));
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    // Touch each {|01>, |10>} pair once, from the a-set/b-clear side.
    if ((idx & abit) && !(idx & bbit)) {
      const std::uint64_t other = (idx & ~abit) | bbit;
      const Amplitude hi = amps_[idx];
      const Amplitude lo = amps_[other];
      amps_[idx] = c * hi + ms * lo;
      amps_[other] = ms * hi + c * lo;
    }
  }
}

void StateVector::swap(std::size_t a, std::size_t b) {
  const std::uint64_t abit = 1ull << a;
  const std::uint64_t bbit = 1ull << b;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if ((idx & abit) && !(idx & bbit)) {
      std::swap(amps_[idx], amps_[(idx & ~abit) | bbit]);
    }
  }
}

void StateVector::fill_uniform() {
  const double a = 1.0 / std::sqrt(static_cast<double>(amps_.size()));
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    amps_[static_cast<std::uint64_t>(i)] = Amplitude(a, 0.0);
  }
}

void StateVector::rx_layer(double theta) { rx_layer(theta, mixer_lanes()); }

void StateVector::rx_layer(double theta, std::size_t lanes) {
  if (lanes != 1 && lanes != mixer_lanes()) {
    throw std::invalid_argument("rx_layer: " + std::to_string(lanes) +
                                " amplitudes per vector on a host that runs " +
                                std::to_string(mixer_lanes()));
  }
  if (num_qubits_ == 0) return;
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  const std::size_t k = std::min(num_qubits_, kBlockQubits);
  MixerItem* block = rx_block_scalar;
  MixerItem* tile = rx_tile_scalar;
#if defined(__x86_64__) || defined(__i386__)
  if (lanes == 2) {
    block = rx_block_avx2;
    tile = rx_tile_avx2;
  }
#endif
  // Blocks, then tiles, are the OpenMP work items: a team only changes
  // who visits which independent pairs, never a value.
  Amplitude* const amps = amps_.data();
  const auto blocks = static_cast<std::int64_t>(amps_.size() >> k);
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < blocks; ++b) {
    block(amps, static_cast<std::size_t>(b), k, num_qubits_, c, s);
  }
  if (num_qubits_ == k) return;
  const auto tiles = static_cast<std::int64_t>((std::size_t{1} << k) / kTile);
#pragma omp parallel for schedule(static)
  for (std::int64_t t = 0; t < tiles; ++t) {
    tile(amps, static_cast<std::size_t>(t), k, num_qubits_, c, s);
  }
}

void StateVector::renormalize() {
  const double total = norm();
  if (total <= 0.0) return;
  const double inv = 1.0 / std::sqrt(total);
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    amps_[static_cast<std::uint64_t>(i)] *= inv;
  }
}

void StateVector::renormalize_into_cdf(std::vector<double>& cdf) {
  const double total = norm();
  // x * 1.0 == x, so the zero vector stays as renormalize() leaves it.
  const double inv = total > 0.0 ? 1.0 / std::sqrt(total) : 1.0;
  cdf.resize(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    amps_[i] *= inv;
    acc += std::norm(amps_[i]);
    cdf[i] = acc;
  }
}

double StateVector::norm() const {
  // Serial, in index order: an OpenMP reduction adds per-thread partial
  // sums, so its last bits (and every QAOA result after a renormalize)
  // would depend on the thread count. This is the one-thread sum.
  double total = 0.0;
  for (const Amplitude& a : amps_) total += std::norm(a);
  return total;
}

std::vector<double> StateVector::probabilities() const {
  std::vector<double> p(amps_.size());
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < n; ++i) {
    p[static_cast<std::uint64_t>(i)] =
        std::norm(amps_[static_cast<std::uint64_t>(i)]);
  }
  return p;
}

std::vector<std::uint64_t> StateVector::sample(std::size_t shots,
                                               Rng& rng) const {
  // Cumulative inverse sampling; the CDF build dominates, so shots are cheap.
  std::vector<double> cdf(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    cdf[i] = acc;
  }
  std::vector<std::uint64_t> out(shots);
  draw_basis_states(cdf, out, rng);
  return out;
}

std::size_t mixer_lanes() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") ? 2 : 1;
#else
  return 1;
#endif
}

void draw_basis_states(std::span<const double> cdf,
                       std::span<std::uint64_t> out, Rng& rng) {
  const double total = cdf.back();
  for (std::uint64_t& basis : out) {
    const double r = rng.uniform() * total;
    // std::lower_bound without its data-dependent branch, which mispredicts
    // about once per level: the first i with !(cdf[i] < r) lies in
    // [first, first + len] throughout.
    const double* first = cdf.data();
    std::size_t len = cdf.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      first += half & (std::size_t{0} -
                       static_cast<std::size_t>(first[half - 1] < r));
      len -= half;
    }
    basis = static_cast<std::uint64_t>(first - cdf.data()) + (*first < r);
  }
}

}  // namespace nck
