#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

/// \file bigint.h
/// Arbitrary-precision signed integers. The paper manipulates probabilities
/// as exact rationals (e.g. hardness reductions recover integer counts as
/// Pr · 2^m), so the whole library computes with exact arithmetic built on
/// this type. Representation: sign + little-endian base-2^32 magnitude.
///
/// Algorithms: schoolbook multiplication; division by Knuth's Algorithm D
/// (TAOCP 4.3.1) for multi-limb divisors, a single-limb loop for one-limb
/// divisors and shift-and-mask for powers of two (every dyadic probability
/// k/2^j divides that way); binary gcd (Stein) in place on two limb
/// vectors, finishing with one remainder and a uint64_t loop once either
/// operand fits in two limbs; correctly rounded (round-half-to-even)
/// conversion to double.

namespace phom {

class BigInt {
 public:
  /// Zero.
  BigInt() : sign_(0) {}
  /*implicit*/ BigInt(int64_t value);

  /// Parses an optionally signed decimal integer.
  static Result<BigInt> FromString(std::string_view text);
  /// Returns 2^exponent.
  static BigInt Pow2(uint64_t exponent);
  /// Greatest common divisor of |a| and |b| (binary GCD; Gcd(0,0) == 0).
  /// No per-step allocation; the operands are copied once unless one is a
  /// power of two.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  bool is_zero() const { return sign_ == 0; }
  bool is_one() const { return sign_ > 0 && mag_.size() == 1 && mag_[0] == 1; }
  bool is_negative() const { return sign_ < 0; }
  /// -1, 0 or +1.
  int sign() const { return sign_; }

  BigInt Abs() const;

  /// Number of bits in the magnitude (0 for zero).
  uint64_t BitLength() const;
  /// Bit i (little-endian) of the magnitude.
  bool Bit(uint64_t i) const;
  /// True iff the magnitude is a power of two times `2^0` (i.e. == 2^k).
  bool IsPowerOfTwo() const;
  /// Largest k such that 2^k divides the magnitude (0 for zero).
  uint64_t TrailingZeroBits() const;

  BigInt ShiftLeft(uint64_t bits) const;
  BigInt ShiftRight(uint64_t bits) const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Quotient truncated toward zero. PHOM_CHECKs against division by zero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& other) const;
  BigInt operator-() const { return BigInt(-sign_, mag_); }

  /// In place: no temporary BigInt, and the limbs are reused when they fit.
  BigInt& operator+=(const BigInt& other) { return AddSigned(other, other.sign_); }
  BigInt& operator-=(const BigInt& other) { return AddSigned(other, -other.sign_); }
  BigInt& operator*=(const BigInt& other);

  /// Computes both quotient (toward zero) and remainder at once. The outputs
  /// may alias *this or `divisor`.
  void DivMod(const BigInt& divisor, BigInt* quotient, BigInt* remainder) const;

  /// Three-way comparison: negative, zero or positive.
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& other) const { return Compare(other) == 0; }
  bool operator!=(const BigInt& other) const { return Compare(other) != 0; }
  bool operator<(const BigInt& other) const { return Compare(other) < 0; }
  bool operator<=(const BigInt& other) const { return Compare(other) <= 0; }
  bool operator>(const BigInt& other) const { return Compare(other) > 0; }
  bool operator>=(const BigInt& other) const { return Compare(other) >= 0; }

  /// Decimal rendering, e.g. "-1234".
  std::string ToString() const;
  /// Nearest double, ties to even (+/-inf beyond the double range).
  double ToDouble() const;
  /// Value as int64_t if it fits, nullopt otherwise.
  std::optional<int64_t> ToInt64() const;

  size_t Hash() const;

 private:
  using Mag = std::vector<uint32_t>;

  /// *this += sign · |other|; `other` may be *this.
  BigInt& AddSigned(const BigInt& other, int sign);

  /// *a += b; `b` may alias *a.
  static void AddMagInPlace(Mag* a, const Mag& b);
  /// *a -= b; requires *a >= b as magnitudes. `b` may alias *a.
  static void SubMagInPlace(Mag* a, const Mag& b);
  /// *a = b - *a; requires b >= *a as magnitudes.
  static void SubMagFromInPlace(Mag* a, const Mag& b);
  static void ShiftRightMagInPlace(Mag* mag, uint64_t bits);
  static uint64_t TrailingZeroBitsMag(const Mag& mag);
  static Mag MulMag(const Mag& a, const Mag& b);
  static int CompareMag(const Mag& a, const Mag& b);
  static void Normalize(Mag* mag);
  /// Divides magnitude by a single limb; returns remainder.
  static uint32_t DivModSmall(Mag* mag, uint32_t divisor);
  /// Knuth's Algorithm D: u = q·v + r for v of two or more limbs, u >= v.
  static void DivModKnuth(const Mag& u, const Mag& v, Mag* q, Mag* r);
  static void MulSmallAdd(Mag* mag, uint32_t factor, uint32_t addend);

  BigInt(int sign, Mag mag);

  int sign_;                   // -1, 0, +1; 0 iff mag_ empty
  std::vector<uint32_t> mag_;  // little-endian limbs, no leading zero limb
};

}  // namespace phom
