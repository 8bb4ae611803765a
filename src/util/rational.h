#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/bigint.h"
#include "src/util/result.h"

/// \file rational.h
/// Exact rational numbers over BigInt. All probabilities in the library are
/// Rationals, so computed answers are exact (tests compare with ==, and the
/// #P-hardness reductions recover integer model counts via Pr * 2^m).
///
/// Values are kept in canonical form (gcd(num, den) == 1, den > 0), so any
/// correct arithmetic yields the same representation. The operators follow
/// Knuth, TAOCP 4.5.1: products cancel crosswise before multiplying,
/// (a/b)(c/d) = ((a/g1)(c/g2)) / ((b/g2)(d/g1)) with g1 = gcd(a, d) and
/// g2 = gcd(c, b); sums reduce through d1 = gcd(b, d); both results are
/// reduced by construction. ToDouble is correctly rounded (half to even),
/// subnormals included.

namespace phom {

class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /*implicit*/ Rational(int64_t value) : num_(value), den_(1) {}
  Rational(int64_t num, int64_t den) : Rational(BigInt(num), BigInt(den)) {}
  /// Normalizes: gcd-reduced, denominator > 0. PHOM_CHECKs den != 0.
  Rational(BigInt num, BigInt den);

  /// Parses "3", "-3", "3/4", "0.35", "-1.5".
  static Result<Rational> FromString(std::string_view text);
  /// Exact value of an IEEE double (every finite double is a dyadic
  /// rational m/2^k). PHOM_CHECKs that `value` is finite. This is the
  /// lossless bridge the interval backend uses to PROVE its enclosures.
  static Rational FromDouble(double value);
  static Rational Zero() { return Rational(0); }
  static Rational One() { return Rational(1); }
  static Rational Half() { return Rational(1, 2); }

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool is_zero() const { return num_.is_zero(); }
  bool is_one() const { return num_ == den_; }
  bool is_negative() const { return num_.is_negative(); }
  /// True iff 0 <= *this <= 1.
  bool IsProbability() const;

  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  /// PHOM_CHECKs against division by zero.
  Rational operator/(const Rational& other) const;
  Rational operator-() const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  /// 1 - *this; the probability of the complementary event.
  Rational Complement() const;
  Rational Pow(uint64_t exponent) const;

  int Compare(const Rational& other) const;
  bool operator==(const Rational& o) const { return Compare(o) == 0; }
  bool operator!=(const Rational& o) const { return Compare(o) != 0; }
  bool operator<(const Rational& o) const { return Compare(o) < 0; }
  bool operator<=(const Rational& o) const { return Compare(o) <= 0; }
  bool operator>(const Rational& o) const { return Compare(o) > 0; }
  bool operator>=(const Rational& o) const { return Compare(o) >= 0; }

  /// "num/den", or just "num" when den == 1.
  std::string ToString() const;
  /// Truncated decimal expansion with `digits` fractional digits.
  std::string ToDecimalString(int digits) const;
  /// Nearest double, ties to even (+/-inf beyond the double range).
  double ToDouble() const;

  size_t Hash() const;

 private:
  struct Reduced {};
  /// Trusts the caller: gcd(num, den) == 1 and den > 0.
  Rational(BigInt num, BigInt den, Reduced)
      : num_(std::move(num)), den_(std::move(den)) {}
  /// *this + sign · other, sign = ±1.
  Rational AddSigned(const Rational& other, int sign) const;

  BigInt num_;
  BigInt den_;  // always > 0
};

}  // namespace phom
