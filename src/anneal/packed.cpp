#include "anneal/packed.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "qubo/heuristic.hpp"
#include "qubo/qubo.hpp"

namespace nck {
namespace {

// Lane types of the lockstep kernel: F holds one double per lane, U one
// 64-bit word per lane, M one mask per lane (all ones or all zeros). Both
// widths are GCC vector types, so the kernel is written once with vector
// operators, each acting lane by lane with the scalar arithmetic of one
// read; at one lane GCC compiles them to the scalar loop.
//
// Lanes live in plain arrays (std::vector<double> and the like) and are
// read and written only by dereferencing the *Mem typedefs, which compiles
// to one unaligned vector move (a memcpy into a local went through the
// stack as two 16-byte halves, and a vector whose address is taken stays
// in memory). Their aligned(8) is load-bearing: an allocation made in
// baseline-ISA code is only 16-byte aligned, and a naturally aligned
// 32-byte type lets the AVX2 code emit aligned 32-byte moves on it.
// may_alias makes the access defined, as for the intrinsics' __m256d. The
// value types keep their natural alignment, because a typedef's
// attributes are dropped wherever it becomes a template argument. And no
// function takes or returns a value type by value: in baseline-ISA code a
// 32-byte vector at a call boundary has another ABI than in AVX code
// (-Wpsabi), so values pass by reference and every helper is
// always_inline.
template <std::size_t L>
struct Lanes;

template <>
struct Lanes<1> {
  typedef double F __attribute__((vector_size(8)));
  typedef std::uint64_t U __attribute__((vector_size(8)));
  typedef std::int64_t M __attribute__((vector_size(8)));
  typedef double FMem __attribute__((vector_size(8), aligned(8), may_alias));
  typedef std::uint64_t UMem
      __attribute__((vector_size(8), aligned(8), may_alias));
  typedef std::int64_t MMem
      __attribute__((vector_size(8), aligned(8), may_alias));
};

#if defined(__x86_64__) || defined(__i386__)
template <>
struct Lanes<4> {
  typedef double F __attribute__((vector_size(32)));
  typedef std::uint64_t U __attribute__((vector_size(32)));
  typedef std::int64_t M __attribute__((vector_size(32)));
  typedef double FMem __attribute__((vector_size(32), aligned(8), may_alias));
  typedef std::uint64_t UMem
      __attribute__((vector_size(32), aligned(8), may_alias));
  typedef std::int64_t MMem
      __attribute__((vector_size(32), aligned(8), may_alias));
};
#endif

// The lockstep kernel over one group's lane-interleaved arrays: the
// parallel-tempering loop a read runs alone, stepped for L reads at once.
template <std::size_t L>
struct Lockstep {
  using F = typename Lanes<L>::F;
  using U = typename Lanes<L>::U;
  using M = typename Lanes<L>::M;
  using FMem = typename Lanes<L>::FMem;
  using UMem = typename Lanes<L>::UMem;
  using MMem = typename Lanes<L>::MMem;

  const PackedIsing& packed;
  std::size_t n;
  const double* h;
  const double* jw;
  const double* w;
  double* spin;
  double* field;
  double* energy;
  Rng* const* rng;  // one stream per lane

  [[gnu::always_inline]] static void load(F& v, const double* p) noexcept {
    v = *reinterpret_cast<const FMem*>(p);
  }
  [[gnu::always_inline]] static void load(U& v,
                                          const std::uint64_t* p) noexcept {
    v = *reinterpret_cast<const UMem*>(p);
  }
  [[gnu::always_inline]] static void load(M& v,
                                          const std::int64_t* p) noexcept {
    v = *reinterpret_cast<const MMem*>(p);
  }
  [[gnu::always_inline]] static void store(double* p, const F& v) noexcept {
    *reinterpret_cast<FMem*>(p) = v;
  }
  [[gnu::always_inline]] static void store(std::uint64_t* p,
                                           const U& v) noexcept {
    *reinterpret_cast<UMem*>(p) = v;
  }
  [[gnu::always_inline]] static void store(std::int64_t* p,
                                           const M& v) noexcept {
    *reinterpret_cast<MMem*>(p) = v;
  }
  [[gnu::always_inline]] static void splat(F& v, double x) noexcept {
    for (std::size_t l = 0; l < L; ++l) v[l] = x;
  }
  // The OR of all lanes: nonzero when any lane of a mask is set.
  [[gnu::always_inline]] static std::int64_t lanes_or(const M& m) noexcept {
    std::int64_t bits = 0;
    for (std::size_t l = 0; l < L; ++l) bits |= m[l];
    return bits;
  }
  [[gnu::always_inline]] static bool any(const M& m) noexcept {
    return lanes_or(m) != 0;
  }
  // out = m ? a : b per lane, as bit operations (which GCC and Clang both
  // compile for these types).
  template <typename V>
  [[gnu::always_inline]] static void blend(V& out, const M& m, const V& a,
                                           const V& b) noexcept {
    out = (V)(((M)a & m) | ((M)b & ~m));
  }
  // Rng::uniform per lane. AVX2 has no 64-bit integer to double
  // conversion, but bits >> 11 < 2^53 converts exactly as hi * 2^32 + lo,
  // each half through the exponent of a constant: every step is exact.
  [[gnu::always_inline]] static void unit(F& u, const U& bits) noexcept {
    if constexpr (L == 1) {
      u[0] = unit_interval(bits[0]);
    } else {
      U low32, exp52, exp84;
      for (std::size_t l = 0; l < L; ++l) {
        low32[l] = 0xffffffff;
        exp52[l] = 0x4330000000000000;  // the bits of 2^52
        exp84[l] = 0x4530000000000000;  // the bits of 2^84
      }
      const U v = bits >> 11;
      const F lo = (F)((v & low32) | exp52) - 0x1.0p52;
      const F hi = (F)((v >> 32) | exp84) - 0x1.0p84;
      u = (hi + lo) * 0x1.0p-53;
    }
  }

  [[gnu::always_inline]] double* spins(std::size_t rung) const noexcept {
    return spin + rung * n * L;
  }
  [[gnu::always_inline]] double* fields(std::size_t rung) const noexcept {
    return field + rung * n * L;
  }

  // Fields and energy of `rung` from its spins, in the read's order of
  // operations (s * h is +-h exactly).
  [[gnu::always_inline]] void refresh(std::size_t rung) const noexcept {
    double* sp = spins(rung);
    double* fp = fields(rung);
    F e = {};
    for (std::size_t i = 0; i < n; ++i) {
      F hi, si;
      load(hi, h + i * L);
      load(si, sp + i * L);
      store(fp + i * L, hi);
      e += si * hi;
    }
    for (std::size_t c = 0; c < packed.couplers.size(); ++c) {
      const std::size_t a = packed.couplers[c].a;
      const std::size_t b = packed.couplers[c].b;
      F sa, sb, wc, fa, fb;
      load(sa, sp + a * L);
      load(sb, sp + b * L);
      load(wc, jw + c * L);
      e += wc * sa * sb;
      load(fa, fp + a * L);
      store(fp + a * L, fa + wc * sb);
      load(fb, fp + b * L);
      store(fp + b * L, fb + wc * sa);
    }
    store(energy + rung * L, e);
  }

  // The CSR walk of a flip, copied into locals by each sweep: read through
  // `this`, every (may_alias) vector store would force a reload of them.
  struct Walk {
    const std::uint32_t* offsets;
    const std::uint32_t* neighbors;
    const double* w;
  };
  [[gnu::always_inline]] Walk walk() const noexcept {
    return {packed.offsets.data(), packed.neighbors.data(), w};
  }

  // Flips spin i in the lanes of `take` (energy change d). Every lane adds
  // shift * w to its neighbours' fields, where shift is -2 s in a flipping
  // lane and +0 in the others: a field that was -0 may become +0, and no
  // comparison tells the two apart.
  [[gnu::always_inline]] static void flip(Walk g, double* sp, double* fp,
                                          std::size_t i, const F& s,
                                          const F& d, const M& take,
                                          F& e) noexcept {
    F flipped;
    blend(flipped, take, F(-s), s);
    store(sp + i * L, flipped);
    blend(e, take, F(e + d), e);
    const F shift = (F)((M)(-2.0 * s) & take);
    const std::uint32_t end = g.offsets[i + 1];
    for (std::uint32_t k = g.offsets[i]; k < end; ++k) {
      double* f = fp + std::size_t{g.neighbors[k]} * L;
      F fk, wk;
      load(fk, f);
      load(wk, g.w + std::size_t{k} * L);
      store(f, fk + shift * wk);
    }
  }

  // The Metropolis test u < std::exp(-x) for the lanes of `draw`, decided
  // bit for bit as std::exp decides it. Taylor bounds settle most lanes
  // without exp: e^x >= 1 + x + x^2/2 + x^3/6 and e^-x >= 1 - x + x^2/2 -
  // x^3/6 for every real x, so u * (the first) >= 1 + 1e-12 means u > e^-x,
  // and x < 1 with u < (the second) - 1e-13 means u < e^-x. Both margins
  // exceed the rounding of the bounds and of std::exp a thousandfold.
  // bounds() adds the lanes the bounds accept to `take` and returns the
  // ones they leave open in `open`; settle() decides those with std::exp.
  [[gnu::always_inline]] static void bounds(M& take, M& open, const F& u,
                                            const F& x,
                                            const M& draw) noexcept {
    F one, reject_at, accept_below;
    splat(one, 1.0);
    splat(reject_at, 1.0 + 1e-12);
    splat(accept_below, 1e-13);
    const F x2 = x * x;
    const F x3 = x2 * x;
    const F above = one + x + 0.5 * x2 + x3 * (1.0 / 6.0);
    const F below = one - x + 0.5 * x2 - x3 * (1.0 / 6.0);
    const M reject = (M)(u * above >= reject_at);
    const M accept = (M)(x < one) & (M)(u < below - accept_below);
    take |= draw & accept;
    open = draw & ~(reject | accept);
  }
  // Through arrays: indexing a vector by a variable lane would keep it in
  // memory on the common path too.
  [[gnu::always_inline]] static void settle(M& take, const F& u, const F& x,
                                            const M& open) noexcept {
    double ul[L], xl[L];
    std::int64_t ol[L], tl[L];
    store(ul, u);
    store(xl, x);
    store(ol, open);
    store(tl, take);
    for (std::size_t l = 0; l < L; ++l) {
      if (ol[l] != 0 && ul[l] < std::exp(-xl[l])) tl[l] = -1;
    }
    load(take, tl);
  }

  // One Metropolis sweep of `rung` at inverse temperature beta: the flip
  // of spin i changes the energy by d = -2 s_i field_i and is taken when
  // d <= 0, or else with probability exp(-beta d) against one uniform of
  // the lane's stream, drawn (and committed) only by the lanes with d > 0.
  [[gnu::always_inline]] void sweep(std::size_t rung,
                                    double beta) const noexcept {
    const Walk g = walk();
    const std::size_t count = n;
    double* sp = spins(rung);
    double* fp = fields(rung);
    U st[4];
    load_streams(st);
    F e;
    load(e, energy + rung * L);
    const F zero = {};
    for (std::size_t i = 0; i < count; ++i) {
      F s, f;
      load(s, sp + i * L);
      load(f, fp + i * L);
      const F d = -2.0 * s * f;
      M take = (M)(d <= zero);
      const M draw = ~take;
      // At four lanes some lane is uphill on nearly every step, so only
      // the one-lane loop skips the draw when none is (and then flips).
      bool flips = true;
      if (L > 1 || any(draw)) {
        U next[4] = {st[0], st[1], st[2], st[3]};
        U bits;
        xoshiro256ss(next, bits);
        blend(st[0], draw, next[0], st[0]);
        blend(st[1], draw, next[1], st[1]);
        blend(st[2], draw, next[2], st[2]);
        blend(st[3], draw, next[3], st[3]);
        F u;
        unit(u, bits);
        const F x = beta * d;
        M open;
        bounds(take, open, u, x, draw);
        // One lane reduction answers both questions: bit 1, does a lane
        // take the flip; bit 2, does a lane need std::exp.
        const std::int64_t flags = lanes_or((take & 1) | (open & 2));
        if ((flags & 2) != 0) {
          settle(take, u, x, open);
          flips = any(take);
        } else {
          flips = (flags & 1) != 0;
        }
      }
      if (flips) flip(g, sp, fp, i, s, d, take, e);
    }
    store(energy + rung * L, e);
    store_streams(st);
  }

  // The lanes' xoshiro256** words as vectors (st[k] lane l is word k of
  // lane l's stream), and back.
  [[gnu::always_inline]] void load_streams(U (&st)[4]) const noexcept {
    std::uint64_t words[4][L];
    for (std::size_t l = 0; l < L; ++l) {
      const std::array<std::uint64_t, 4> lane = rng[l]->words();
      for (std::size_t k = 0; k < 4; ++k) words[k][l] = lane[k];
    }
    for (std::size_t k = 0; k < 4; ++k) load(st[k], words[k]);
  }
  [[gnu::always_inline]] void store_streams(const U (&st)[4]) const noexcept {
    std::uint64_t words[4][L];
    for (std::size_t k = 0; k < 4; ++k) store(words[k], st[k]);
    for (std::size_t l = 0; l < L; ++l) {
      rng[l]->set_words({words[0][l], words[1][l], words[2][l], words[3][l]});
    }
  }

  // Greedy single-flip descent of `rung` to a local minimum: passes repeat
  // while any lane improved, and a pass changes nothing in a lane that is
  // already at its minimum.
  [[gnu::always_inline]] void descend(std::size_t rung) const noexcept {
    const Walk g = walk();
    const std::size_t count = n;
    double* sp = spins(rung);
    double* fp = fields(rung);
    F e, bound;
    load(e, energy + rung * L);
    splat(bound, -Qubo::kEps);
    for (;;) {
      M improved = {};
      for (std::size_t i = 0; i < count; ++i) {
        F s, f;
        load(s, sp + i * L);
        load(f, fp + i * L);
        const F d = -2.0 * s * f;
        const M take = (M)(d < bound);
        if (any(take)) {
          flip(g, sp, fp, i, s, d, take, e);
          improved |= take;
        }
      }
      if (!any(improved)) break;
    }
    store(energy + rung * L, e);
  }

  // Exchanges lane `l`'s replicas at rungs t and t + 1.
  void swap_lane(std::size_t t, std::size_t l) const noexcept {
    double* sa = spins(t) + l;
    double* sb = spins(t + 1) + l;
    double* fa = fields(t) + l;
    double* fb = fields(t + 1) + l;
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(sa[i * L], sb[i * L]);
      std::swap(fa[i * L], fb[i * L]);
    }
    std::swap(energy[t * L + l], energy[(t + 1) * L + l]);
  }

  // Parallel tempering (or the single-replica ramp), then the greedy
  // descent of the coldest rung, which holds the result.
  [[gnu::always_inline]] void run(std::size_t num_replicas,
                                  std::size_t num_sweeps) const {
    for (std::size_t r = 0; r < num_replicas; ++r) refresh(r);
    const std::size_t per_replica =
        std::max<std::size_t>(1, num_sweeps / num_replicas);

    if (num_replicas == 1) {
      for (double beta : beta_schedule(per_replica)) sweep(0, beta);
      descend(0);
      return;
    }

    const std::vector<double> ladder = tempering_ladder(num_replicas);
    std::size_t done = 0;
    std::size_t parity = 0;
    while (done < per_replica) {
      const std::size_t block =
          std::min(kExchangeInterval, per_replica - done);
      for (std::size_t t = 0; t < num_replicas; ++t) {
        for (std::size_t s = 0; s < block; ++s) sweep(t, ladder[t]);
      }
      done += block;
      if (done >= per_replica) break;
      // Replica exchange between adjacent rungs, alternating pair parity,
      // scalar per lane. Swap acceptance min(1, exp((beta_t - beta_u)(E_t -
      // E_u))) moves low energies toward cold rungs; one uniform per
      // attempted pair keeps the draw count data-independent.
      for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t t = parity; t + 1 < num_replicas; t += 2) {
          const double d = (ladder[t] - ladder[t + 1]) *
                           (energy[t * L + l] - energy[(t + 1) * L + l]);
          const double u = rng[l]->uniform();
          if (d >= 0.0 || u < std::exp(d)) swap_lane(t, l);
        }
      }
      parity ^= 1;
    }
    descend(num_replicas - 1);
  }
};

template <std::size_t L>
[[gnu::always_inline]] inline void decide(std::span<const double> u,
                                          std::span<const double> x,
                                          std::vector<bool>& accept) {
  using K = Lockstep<L>;
  const std::size_t count = u.size();
  for (std::size_t first = 0; first < count; first += L) {
    typename K::F uv = {}, xv = {};
    typename K::M draw = {}, take = {};
    for (std::size_t l = 0; l < L && first + l < count; ++l) {
      uv[l] = u[first + l];
      xv[l] = x[first + l];
      draw[l] = -1;
    }
    typename K::M open;
    K::bounds(take, open, uv, xv, draw);
    if (K::any(open)) K::settle(take, uv, xv, open);
    for (std::size_t l = 0; l < L && first + l < count; ++l) {
      accept[first + l] = take[l] != 0;
    }
  }
}

// The two instantiations. Every function of the kernel is always_inline,
// so each entry compiles all of it under its own target; the AVX2 entry
// has no FMA, which would round differently from a read's separate
// multiply and add.
void run_scalar(const Lockstep<1>& kernel, std::size_t num_replicas,
                std::size_t num_sweeps) {
  kernel.run(num_replicas, num_sweeps);
}

void decide_scalar(std::span<const double> u, std::span<const double> x,
                   std::vector<bool>& accept) {
  decide<1>(u, x, accept);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void run_avx2(const Lockstep<4>& kernel,
                                      std::size_t num_replicas,
                                      std::size_t num_sweeps) {
  kernel.run(num_replicas, num_sweeps);
}

[[gnu::target("avx2")]] void decide_avx2(std::span<const double> u,
                                         std::span<const double> x,
                                         std::vector<bool>& accept) {
  decide<4>(u, x, accept);
}
#endif

void check_lanes(std::size_t lanes, const char* who) {
  if (lanes != 1 && lanes != lockstep_lanes()) {
    throw std::invalid_argument(std::string(who) + ": " +
                                std::to_string(lanes) +
                                " lanes on a host that runs " +
                                std::to_string(lockstep_lanes()));
  }
}

}  // namespace

PackedIsing::PackedIsing(const IsingModel& model) : h(model.h) {
  const std::size_t n = model.num_spins();
  couplers.reserve(model.j.size());
  for (const auto& [a, b, w] : model.j) {
    couplers.push_back({a, b, w});
  }

  offsets.assign(n + 1, 0);
  for (const Coupler& c : couplers) {
    ++offsets[c.a + 1];
    ++offsets[c.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];

  neighbors.resize(2 * couplers.size());
  coupler_of.resize(2 * couplers.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t c = 0; c < couplers.size(); ++c) {
    const Coupler& cp = couplers[c];
    neighbors[cursor[cp.a]] = cp.b;
    coupler_of[cursor[cp.a]++] = static_cast<std::uint32_t>(c);
    neighbors[cursor[cp.b]] = cp.a;
    coupler_of[cursor[cp.b]++] = static_cast<std::uint32_t>(c);
  }
}

std::vector<double> tempering_ladder(std::size_t num_replicas) {
  return beta_schedule(std::max<std::size_t>(1, num_replicas));
}

std::size_t lockstep_lanes() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") ? 4 : 1;
#else
  return 1;
#endif
}

LockstepWorkspace::LockstepWorkspace(const PackedIsing& packed,
                                     std::size_t lanes)
    : packed_(&packed),
      lanes_(lanes),
      n_(packed.num_spins()),
      words_(packed.num_words()),
      h_(packed.num_spins() * lanes),
      jw_(packed.num_couplers() * lanes),
      w_(packed.neighbors.size() * lanes),
      gauge_(packed.num_words() * lanes) {
  check_lanes(lanes, "LockstepWorkspace");
}

std::vector<bool> metropolis_accepts(std::span<const double> u,
                                     std::span<const double> x,
                                     std::size_t lanes) {
  check_lanes(lanes, "metropolis_accepts");
  if (u.size() != x.size()) {
    throw std::invalid_argument("metropolis_accepts: u and x differ in size");
  }
  std::vector<bool> accept(u.size());
#if defined(__x86_64__) || defined(__i386__)
  if (lanes == 4) {
    decide_avx2(u, x, accept);
    return accept;
  }
#endif
  decide_scalar(u, x, accept);
  return accept;
}

void LockstepWorkspace::load_program(std::size_t lane,
                                     const ReadProgram& program, Rng& rng) {
  const PackedIsing& p = *packed_;
  const std::size_t stride = lanes_;
  std::uint64_t* gauge = gauge_.data() + lane * words_;
  std::fill(gauge, gauge + words_, 0);
  if (program.gauge) {
    for (std::size_t q = 0; q < n_; ++q) {
      if (rng.bernoulli(0.5)) gauge[q >> 6] |= 1ull << (q & 63);
    }
  }
  const double inv = program.scale > 0.0 ? 1.0 / program.scale : 1.0;
  for (std::size_t q = 0; q < n_; ++q) {
    double v = gauge_bit(lane, q) ? -p.h[q] : p.h[q];
    if (program.sigma > 0.0) v += rng.gaussian(0.0, program.sigma);
    h_[q * stride + lane] = v * inv;
  }
  for (std::size_t c = 0; c < p.num_couplers(); ++c) {
    const PackedIsing::Coupler& cp = p.couplers[c];
    double v = gauge_bit(lane, cp.a) != gauge_bit(lane, cp.b) ? -cp.weight
                                                              : cp.weight;
    if (program.sigma > 0.0) v += rng.gaussian(0.0, program.sigma);
    jw_[c * stride + lane] = v * inv;
  }
  for (std::size_t k = 0; k < p.coupler_of.size(); ++k) {
    w_[k * stride + lane] = jw_[std::size_t{p.coupler_of[k]} * stride + lane];
  }
}

void LockstepWorkspace::randomize(std::size_t lane, std::size_t rung,
                                  Rng& rng) {
  double* sp = spin_.data() + rung * n_ * lanes_ + lane;
  for (std::size_t word = 0; word < words_; ++word) {
    const std::uint64_t bits = rng();
    const std::size_t end = std::min(n_, 64 * word + 64);
    for (std::size_t i = 64 * word; i < end; ++i) {
      sp[i * lanes_] = ((bits >> (i & 63)) & 1u) != 0 ? 1.0 : -1.0;
    }
  }
}

void LockstepWorkspace::anneal(std::span<Rng> streams,
                               const ReadProgram& program,
                               std::size_t num_replicas,
                               std::size_t num_sweeps) {
  if (streams.empty() || streams.size() > lanes_) {
    throw std::invalid_argument("LockstepWorkspace::anneal: " +
                                std::to_string(streams.size()) +
                                " streams for " + std::to_string(lanes_) +
                                " lanes");
  }
  num_replicas = std::max<std::size_t>(1, num_replicas);
  spin_.resize(num_replicas * n_ * lanes_);
  field_.resize(num_replicas * n_ * lanes_);
  energy_.resize(num_replicas * lanes_);

  // Idle lanes repeat the first read on copies of its stream.
  idle_.assign(lanes_ - streams.size(), streams[0]);
  Rng* rng[4] = {};
  for (std::size_t l = 0; l < lanes_; ++l) {
    rng[l] = l < streams.size() ? &streams[l] : &idle_[l - streams.size()];
    load_program(l, program, *rng[l]);
    for (std::size_t r = 0; r < num_replicas; ++r) randomize(l, r, *rng[l]);
  }

  best_ = num_replicas - 1;
  const auto dispatch = [&]<std::size_t L>(
      void (*entry)(const Lockstep<L>&, std::size_t, std::size_t)) {
    entry({*packed_, n_, h_.data(), jw_.data(), w_.data(), spin_.data(),
           field_.data(), energy_.data(), rng},
          num_replicas, num_sweeps);
  };
#if defined(__x86_64__) || defined(__i386__)
  if (lanes_ == 4) return dispatch(run_avx2);
#endif
  dispatch(run_scalar);
}

}  // namespace nck
