#include "circuit/statevector.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nck {

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

void StateVector::rx_layer(double theta) {
  // Per pair a0 = (x0, y0), a1 = (x1, y1) of qubit q's butterfly:
  //   a0' = (c x0 + s y1, c y0 - s x1),  a1' = (s y0 + c x1, c y1 - s x0).
  // These are exactly the products and sums of c*a0 + (-i s)*a1 and
  // (-i s)*a0 + c*a1; the complex form only adds products with the zero
  // parts of c and -i s, which can change nothing but the sign of a zero.
  const double c = std::cos(theta / 2);
  const double s = std::sin(theta / 2);
  // Pairs per work item: qubit q's blocks of 2^(q+1) amplitudes are split
  // into runs of at most this many pairs, so a high qubit, which has only
  // a few blocks, still spreads over the OpenMP team.
  constexpr std::int64_t kRunPairs = 256;
  const std::int64_t pairs = static_cast<std::int64_t>(amps_.size() >> 1);
  Amplitude* const amps = amps_.data();
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    const std::int64_t stride = std::int64_t{1} << q;
    const std::int64_t run = std::min(stride, kRunPairs);
#pragma omp parallel for schedule(static)
    for (std::int64_t first = 0; first < pairs; first += run) {
      // Pair p = b * stride + j sits at 2 b stride + j = 2p - j, bit q clear.
      Amplitude* const lo = amps + (2 * first - (first & (stride - 1)));
      Amplitude* const hi = lo + stride;
      for (std::int64_t j = 0; j < run; ++j) {
        const double x0 = lo[j].real(), y0 = lo[j].imag();
        const double x1 = hi[j].real(), y1 = hi[j].imag();
        lo[j] = Amplitude(c * x0 + s * y1, c * y0 - s * x1);
        hi[j] = Amplitude(s * y0 + c * x1, c * y1 - s * x0);
      }
    }
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

double StateVector::norm() const {
  double total = 0.0;
  const std::int64_t n = static_cast<std::int64_t>(amps_.size());
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (std::int64_t i = 0; i < n; ++i) {
    total += std::norm(amps_[static_cast<std::uint64_t>(i)]);
  }
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
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
    out[s] = static_cast<std::uint64_t>(it - cdf.begin());
  }
  return out;
}

}  // namespace nck
