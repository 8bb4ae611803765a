#include "src/util/rational.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace phom {

namespace {

/// x / g, by reference when g == 1 (the common case for coprime operands).
const BigInt& Quotient(const BigInt& x, const BigInt& g, BigInt* storage) {
  if (g.is_one()) return x;
  *storage = x / g;
  return *storage;
}

}  // namespace

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  PHOM_CHECK_MSG(!den_.is_zero(), "Rational with zero denominator");
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  const BigInt g = BigInt::Gcd(num_, den_);
  if (!g.is_one()) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::FromDouble(double value) {
  PHOM_CHECK_MSG(std::isfinite(value), "Rational::FromDouble of non-finite");
  if (value == 0.0) return Rational::Zero();
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = mantissa·2^exp
  // 53 bits make the scaled mantissa exactly integral (|mantissa| ∈ [0.5, 1)).
  int64_t m = static_cast<int64_t>(std::ldexp(mantissa, 53));
  int shift = exp - 53;
  if (shift >= 0) {
    return Rational(BigInt(m).ShiftLeft(static_cast<uint64_t>(shift)),
                    BigInt(1), Reduced{});
  }
  // Cancel the mantissa's factors of two against the denominator 2^-shift.
  const int cancel = std::min(__builtin_ctzll(static_cast<uint64_t>(m)), -shift);
  m /= int64_t{1} << cancel;
  shift += cancel;
  return Rational(BigInt(m), BigInt::Pow2(static_cast<uint64_t>(-shift)),
                  Reduced{});
}

bool Rational::IsProbability() const {
  return !num_.is_negative() && num_ <= den_;
}

Rational Rational::AddSigned(const Rational& other, int sign) const {
  if (other.is_zero()) return *this;
  if (is_zero()) return sign > 0 ? other : -other;
  // Knuth 4.5.1: with d1 = gcd(b, d), a/b ± c/d = t / ((b/d1)·(d/d2)) where
  // t = a·(d/d1) ± c·(b/d1) and d2 = gcd(t, d1). The operands stay small
  // and the result needs no final gcd over the full product.
  const BigInt d1 = BigInt::Gcd(den_, other.den_);
  BigInt b_storage;
  BigInt d_storage;
  const BigInt& b_over_d1 = Quotient(den_, d1, &b_storage);
  const BigInt& d_over_d1 = Quotient(other.den_, d1, &d_storage);
  BigInt t = num_ * d_over_d1;
  if (sign > 0) {
    t += other.num_ * b_over_d1;
  } else {
    t -= other.num_ * b_over_d1;
  }
  if (t.is_zero()) return Zero();
  const BigInt d2 = BigInt::Gcd(t, d1);
  if (!d2.is_one()) t = t / d2;
  BigInt d_over_d2;
  return Rational(std::move(t),
                  b_over_d1 * Quotient(other.den_, d2, &d_over_d2), Reduced{});
}

Rational Rational::operator+(const Rational& other) const {
  return AddSigned(other, 1);
}

Rational Rational::operator-(const Rational& other) const {
  return AddSigned(other, -1);
}

Rational Rational::operator*(const Rational& other) const {
  if (is_zero() || other.is_zero()) return Zero();
  // Cross-cancel (Knuth 4.5.1): the factors stay reduced, so no gcd over
  // the full product is needed.
  const BigInt g1 = BigInt::Gcd(num_, other.den_);
  const BigInt g2 = BigInt::Gcd(other.num_, den_);
  BigInt a, b, c, d;
  return Rational(Quotient(num_, g1, &a) * Quotient(other.num_, g2, &c),
                  Quotient(den_, g2, &b) * Quotient(other.den_, g1, &d),
                  Reduced{});
}

Rational Rational::operator/(const Rational& other) const {
  PHOM_CHECK_MSG(!other.is_zero(), "Rational division by zero");
  if (is_zero()) return Zero();
  // (a/b) / (c/d) == (a·d) / (b·c), cross-cancelled as in operator*.
  const BigInt g1 = BigInt::Gcd(num_, other.num_);
  const BigInt g2 = BigInt::Gcd(other.den_, den_);
  BigInt a, b, c, d;
  BigInt num = Quotient(num_, g1, &a) * Quotient(other.den_, g2, &d);
  BigInt den = Quotient(den_, g2, &b) * Quotient(other.num_, g1, &c);
  if (den.is_negative()) {
    num = -num;
    den = -den;
  }
  return Rational(std::move(num), std::move(den), Reduced{});
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::Complement() const {
  // gcd(b - a, b) == gcd(a, b) == 1: already reduced.
  if (is_one()) return Zero();
  return Rational(den_ - num_, den_, Reduced{});
}

Rational Rational::Pow(uint64_t exponent) const {
  Rational result = One();
  Rational base = *this;
  while (exponent) {
    if (exponent & 1) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

int Rational::Compare(const Rational& other) const {
  return (num_ * other.den_).Compare(other.num_ * den_);
}

Result<Rational> Rational::FromString(std::string_view text) {
  if (text.empty()) return Status::Invalid("empty rational literal");
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(text.substr(0, slash)));
    PHOM_ASSIGN_OR_RETURN(BigInt den,
                          BigInt::FromString(text.substr(slash + 1)));
    if (den.is_zero()) return Status::Invalid("zero denominator: " +
                                              std::string(text));
    return Rational(std::move(num), std::move(den));
  }
  size_t dot = text.find('.');
  if (dot == std::string_view::npos) {
    PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(text));
    return Rational(std::move(num), BigInt(1));
  }
  std::string digits(text.substr(0, dot));
  std::string_view frac = text.substr(dot + 1);
  if (frac.empty()) return Status::Invalid("trailing dot: " + std::string(text));
  bool negative = !digits.empty() && digits[0] == '-';
  digits += std::string(frac);
  PHOM_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(digits));
  BigInt den(1);
  for (size_t i = 0; i < frac.size(); ++i) den = den * BigInt(10);
  (void)negative;
  return Rational(std::move(num), std::move(den));
}

std::string Rational::ToString() const {
  if (den_ == BigInt(1)) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

std::string Rational::ToDecimalString(int digits) const {
  BigInt scale(1);
  for (int i = 0; i < digits; ++i) scale = scale * BigInt(10);
  BigInt scaled = num_.Abs() * scale / den_;
  std::string body = scaled.ToString();
  if (static_cast<int>(body.size()) <= digits) {
    body.insert(0, digits + 1 - body.size(), '0');
  }
  std::string out = num_.is_negative() ? "-" : "";
  out.append(body, 0, body.size() - digits);
  out += '.';
  out.append(body, body.size() - digits);
  return out;
}

double Rational::ToDouble() const {
  if (den_.is_one()) return num_.ToDouble();
  // The value is neither 0 nor an integer here.
  const double sign = num_.is_negative() ? -1.0 : 1.0;
  const int64_t num_bits = static_cast<int64_t>(num_.BitLength());
  const int64_t den_bits = static_cast<int64_t>(den_.BitLength());
  // Both parts exact as doubles: one IEEE division is correctly rounded.
  if (num_bits <= 53 && den_bits <= 53) {
    return static_cast<double>(*num_.ToInt64()) /
           static_cast<double>(*den_.ToInt64());
  }
  // |value| lies in [2^(num_bits-den_bits-1), 2^(num_bits-den_bits+1)).
  if (num_bits - den_bits > 1025) return sign * HUGE_VAL;
  if (num_bits - den_bits < -1076) return sign * 0.0;  // below 2^-1075
  // Scale by 2^k so the integer quotient Q = floor(|value|·2^k) has 55 or
  // 56 bits: enough for 53 kept bits, a round bit and a guard bit, while the
  // division remainder supplies the sticky bit.
  const int64_t k = 55 - num_bits + den_bits;
  BigInt q, r;
  if (k >= 0) {
    num_.ShiftLeft(static_cast<uint64_t>(k)).DivMod(den_, &q, &r);
  } else {
    num_.DivMod(den_.ShiftLeft(static_cast<uint64_t>(-k)), &q, &r);
  }
  const uint64_t quotient = static_cast<uint64_t>(std::llabs(*q.ToInt64()));
  const int64_t exponent = (63 - __builtin_clzll(quotient)) - k;  // floor(log2)
  // Result ulp: 2^(exponent-52) for normals, 2^-1074 for subnormals.
  const int64_t ulp = std::max<int64_t>(exponent - 52, -1074);
  const int64_t drop = ulp + k;  // low bits of Q below the ulp, >= 2
  if (drop >= 64) return sign * 0.0;
  uint64_t mantissa = quotient >> drop;
  const uint64_t rest = quotient & ((uint64_t{1} << drop) - 1);
  const uint64_t half = uint64_t{1} << (drop - 1);
  if (rest > half || (rest == half && (!r.is_zero() || (mantissa & 1)))) {
    ++mantissa;
  }
  // Exact: mantissa <= 2^53 and the ulp is representable; overflow -> inf.
  return sign * std::ldexp(static_cast<double>(mantissa),
                           static_cast<int>(std::min<int64_t>(ulp, 2000)));
}

size_t Rational::Hash() const {
  size_t h = num_.Hash();
  h ^= den_.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace phom
