#include "synth/rational.hpp"

namespace nck {
namespace {

using Int = Rational::Int;

Int int_abs(Int x) noexcept { return x < 0 ? -x : x; }

Int gcd(Int a, Int b) noexcept {
  a = int_abs(a);
  b = int_abs(b);
  while (b != 0) {
    const Int t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace

Rational::Int Rational::checked_mul(Int a, Int b) {
  if (a == 0 || b == 0) return 0;
  const Int r = a * b;
  if (r / b != a) throw RationalOverflow();
  return r;
}

Rational::Rational(long long n, long long d) : num_(n), den_(d) {
  if (d == 0) throw std::invalid_argument("Rational: zero denominator");
  normalize();
}

Rational Rational::from_int128(Int n, Int d) {
  if (d == 0) throw std::invalid_argument("Rational: zero denominator");
  Rational r;
  r.num_ = n;
  r.den_ = d;
  r.normalize();
  return r;
}

void Rational::normalize() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_ == 0) {
    den_ = 1;
    return;
  }
  const Int g = gcd(num_, den_);
  num_ /= g;
  den_ /= g;
}

double Rational::to_double() const noexcept {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

Rational Rational::operator-() const {
  Rational r = *this;
  r.num_ = -r.num_;
  return r;
}

Rational Rational::operator+(const Rational& o) const {
  const Int g = gcd(den_, o.den_);
  const Int lhs_scale = o.den_ / g;
  const Int rhs_scale = den_ / g;
  const Int n = checked_mul(num_, lhs_scale) + checked_mul(o.num_, rhs_scale);
  const Int d = checked_mul(den_, lhs_scale);
  return from_int128(n, d);
}

Rational Rational::operator-(const Rational& o) const { return *this + (-o); }

Rational Rational::operator*(const Rational& o) const {
  // Cross-reduce before multiplying to keep magnitudes small.
  const Int g1 = gcd(num_, o.den_);
  const Int g2 = gcd(o.num_, den_);
  const Int n = checked_mul(num_ / g1, o.num_ / g2);
  const Int d = checked_mul(den_ / g2, o.den_ / g1);
  return from_int128(n, d);
}

Rational Rational::operator/(const Rational& o) const {
  if (o.num_ == 0) throw std::invalid_argument("Rational: division by zero");
  return *this * from_int128(o.den_, o.num_);
}

bool Rational::operator<(const Rational& o) const {
  // num_/den_ < o.num_/o.den_  <=>  num_*o.den_ < o.num_*den_ (dens > 0).
  return checked_mul(num_, o.den_) < checked_mul(o.num_, den_);
}

}  // namespace nck
