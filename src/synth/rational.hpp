// Exact rational arithmetic over 128-bit integers, used by the simplex-based
// QUBO coefficient synthesizer where floating-point feasibility decisions
// would be unsound. Overflow is detected and reported by exception (the
// synthesis engine then falls back to the Z3 path).
#pragma once

#include <cstdint>
#include <stdexcept>

namespace nck {

/// Thrown when an exact computation would exceed 128-bit range.
class RationalOverflow : public std::runtime_error {
 public:
  RationalOverflow() : std::runtime_error("rational arithmetic overflow") {}
};

class Rational {
 public:
  using Int = __int128;

  constexpr Rational() noexcept : num_(0), den_(1) {}
  Rational(long long n) : num_(n), den_(1) {}  // NOLINT: implicit by design
  Rational(long long n, long long d);

  static Rational from_int128(Int n, Int d);

  Int num() const noexcept { return num_; }
  Int den() const noexcept { return den_; }

  bool is_zero() const noexcept { return num_ == 0; }

  double to_double() const noexcept;

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const noexcept {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const noexcept { return !(*this == o); }
  bool operator<(const Rational& o) const;
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator<=(const Rational& o) const { return !(o < *this); }
  bool operator>=(const Rational& o) const { return !(*this < o); }

 private:
  void normalize();
  static Int checked_mul(Int a, Int b);

  Int num_;
  Int den_;  // > 0 always
};

}  // namespace nck
