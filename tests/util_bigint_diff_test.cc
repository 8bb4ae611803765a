#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/util/bigint.h"
#include "src/util/rational.h"

/// Differential tests for the exact arithmetic layer. BigInt division and
/// gcd are checked against two independent oracles: the original bit-serial
/// long division and subtractive binary gcd (kept here, written against the
/// public API only, as the reference), and __int128 arithmetic for operands
/// that fit. Rational operators must keep the canonical form (den > 0,
/// gcd(num, den) == 1) and equal the naive construct-then-normalize result;
/// ToDouble must be correctly rounded, checked against std::ldexp.

namespace phom {
namespace {

using Int128 = __int128;

// ---------------------------------------------------------------------------
// Reference implementations and oracles
// ---------------------------------------------------------------------------

/// Bit-serial binary long division on magnitudes: one shift and compare per
/// dividend bit. Quotient truncated toward zero, remainder takes the
/// dividend's sign.
void ReferenceDivMod(const BigInt& a, const BigInt& b, BigInt* q, BigInt* r) {
  const BigInt divisor = b.Abs();
  BigInt quotient;
  BigInt rem;
  for (uint64_t i = a.BitLength(); i-- > 0;) {
    rem = rem.ShiftLeft(1);
    if (a.Bit(i)) rem = rem + BigInt(1);
    quotient = quotient.ShiftLeft(1);
    if (rem.Compare(divisor) >= 0) {
      rem = rem - divisor;
      quotient = quotient + BigInt(1);
    }
  }
  *q = a.sign() * b.sign() < 0 ? -quotient : quotient;
  *r = a.is_negative() ? -rem : rem;
}

/// Subtractive binary gcd, allocating a fresh BigInt per step.
BigInt ReferenceGcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  if (x.is_zero()) return y;
  if (y.is_zero()) return x;
  const uint64_t shift = std::min(x.TrailingZeroBits(), y.TrailingZeroBits());
  x = x.ShiftRight(x.TrailingZeroBits());
  do {
    y = y.ShiftRight(y.TrailingZeroBits());
    if (x.Compare(y) > 0) std::swap(x, y);
    y = y - x;
  } while (!y.is_zero());
  return x.ShiftLeft(shift);
}

/// Decimal text of an __int128, built without BigInt.
std::string Int128ToString(Int128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  unsigned __int128 mag = negative ? -static_cast<unsigned __int128>(v)
                                   : static_cast<unsigned __int128>(v);
  std::string digits;
  while (mag != 0) {
    digits.insert(digits.begin(), static_cast<char>('0' + mag % 10));
    mag /= 10;
  }
  return negative ? "-" + digits : digits;
}

BigInt FromInt128(Int128 v) { return *BigInt::FromString(Int128ToString(v)); }

Int128 GcdInt128(Int128 a, Int128 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Random magnitude of exactly `limbs` 32-bit limbs (top limb nonzero),
/// negated with probability 1/2 when `signed_values`.
BigInt RandomBigInt(std::mt19937_64* rng, size_t limbs, bool signed_values) {
  BigInt out;
  for (size_t i = 0; i < limbs; ++i) {
    uint32_t limb = static_cast<uint32_t>((*rng)());
    if (i == 0 && limb == 0) limb = 1;
    // Sprinkle all-ones and all-zeros limbs: carries and borrows that run
    // across limb boundaries are where limb code breaks.
    const uint64_t pick = (*rng)() % 8;
    if (i > 0 && pick == 0) limb = 0xffffffffu;
    if (i > 0 && pick == 1) limb = 0;
    out = out.ShiftLeft(32) + BigInt(static_cast<int64_t>(limb));
  }
  if (signed_values && ((*rng)() & 1)) out = -out;
  return out;
}

/// Little-endian limbs to a BigInt.
BigInt FromLimbs(const std::vector<uint32_t>& limbs) {
  BigInt out;
  for (size_t i = limbs.size(); i-- > 0;) {
    out = out.ShiftLeft(32) + BigInt(static_cast<int64_t>(limbs[i]));
  }
  return out;
}

/// DivMod against the reference and against the defining identity.
void ExpectDivModMatches(const BigInt& a, const BigInt& b,
                         const std::string& context) {
  BigInt q, r, want_q, want_r;
  a.DivMod(b, &q, &r);
  ReferenceDivMod(a, b, &want_q, &want_r);
  EXPECT_EQ(q, want_q) << context << ": " << a.ToString() << " / "
                       << b.ToString();
  EXPECT_EQ(r, want_r) << context << ": " << a.ToString() << " % "
                       << b.ToString();
  EXPECT_EQ(q * b + r, a) << context;
  EXPECT_LT(r.Abs(), b.Abs()) << context;
  EXPECT_TRUE(r.is_zero() || r.sign() == a.sign()) << context;
}

// ---------------------------------------------------------------------------
// BigInt division and gcd
// ---------------------------------------------------------------------------

TEST(BigIntDiff, DivModAndGcdMatchInt128Oracle) {
  std::mt19937_64 rng(20170514);
  for (int trial = 0; trial < 4000; ++trial) {
    const int a_bits = 1 + static_cast<int>(rng() % 126);
    const int b_bits = 1 + static_cast<int>(rng() % a_bits);
    auto draw = [&](int bits) {
      unsigned __int128 v = (static_cast<unsigned __int128>(rng()) << 64) | rng();
      v &= (static_cast<unsigned __int128>(1) << bits) - 1;
      Int128 s = static_cast<Int128>(v);
      return (rng() & 1) ? -s : s;
    };
    const Int128 a = draw(a_bits);
    Int128 b = draw(b_bits);
    if (b == 0) b = 1;
    const BigInt big_a = FromInt128(a);
    const BigInt big_b = FromInt128(b);
    BigInt q, r;
    big_a.DivMod(big_b, &q, &r);
    EXPECT_EQ(q, FromInt128(a / b)) << Int128ToString(a) << " / " << Int128ToString(b);
    EXPECT_EQ(r, FromInt128(a % b)) << Int128ToString(a) << " % " << Int128ToString(b);
    EXPECT_EQ(big_a / big_b, FromInt128(a / b));
    EXPECT_EQ(big_a % big_b, FromInt128(a % b));
    EXPECT_EQ(BigInt::Gcd(big_a, big_b), FromInt128(GcdInt128(a, b)))
        << Int128ToString(a) << ", " << Int128ToString(b);
  }
}

TEST(BigIntDiff, DivModMatchesBitSerialReference) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t a_limbs = 1 + rng() % 40;
    const size_t b_limbs = 1 + rng() % a_limbs;
    const BigInt a = RandomBigInt(&rng, a_limbs, true);
    const BigInt b = RandomBigInt(&rng, b_limbs, true);
    ExpectDivModMatches(a, b, "trial " + std::to_string(trial));
    // A smaller dividend: quotient zero, remainder the dividend.
    ExpectDivModMatches(b, a, "swapped trial " + std::to_string(trial));
  }
}

TEST(BigIntDiff, GcdMatchesSubtractiveReference) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    const BigInt common = RandomBigInt(&rng, 1 + rng() % 6, false)
                              .ShiftLeft(rng() % 70);
    const BigInt a = common * RandomBigInt(&rng, 1 + rng() % 20, true);
    const BigInt b = common * RandomBigInt(&rng, 1 + rng() % 20, true);
    const BigInt g = BigInt::Gcd(a, b);
    EXPECT_EQ(g, ReferenceGcd(a, b)) << a.ToString() << ", " << b.ToString();
    EXPECT_EQ(BigInt::Gcd(b, a), g);
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
    EXPECT_TRUE(BigInt::Gcd(a / g, b / g).is_one());
  }
  // Degenerate operands.
  const BigInt x = *BigInt::FromString("-123456789012345678901234567890");
  EXPECT_EQ(BigInt::Gcd(BigInt(), BigInt()), BigInt());
  EXPECT_EQ(BigInt::Gcd(x, BigInt()), x.Abs());
  EXPECT_EQ(BigInt::Gcd(BigInt(), x), x.Abs());
  EXPECT_EQ(BigInt::Gcd(x, x), x.Abs());
  EXPECT_EQ(BigInt::Gcd(x, BigInt(1)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt::Pow2(300), BigInt::Pow2(200) * BigInt(3)),
            BigInt::Pow2(200));
  // A one-limb operand against a 30-limb one (the remainder shortcut).
  std::mt19937_64 rng2(9);
  for (int trial = 0; trial < 200; ++trial) {
    const BigInt big = RandomBigInt(&rng2, 30, true);
    const BigInt small = RandomBigInt(&rng2, 1 + rng2() % 2, true);
    EXPECT_EQ(BigInt::Gcd(big, small), ReferenceGcd(big, small));
    EXPECT_EQ(BigInt::Gcd(small, big), ReferenceGcd(big, small));
  }
}

TEST(BigIntDiff, PowerOfTwoDivisors) {
  std::mt19937_64 rng(11);
  std::vector<uint64_t> exponents = {0, 1, 31, 32, 33, 63, 64, 65, 96, 128,
                                     160, 255, 256, 320, 1000, 1024};
  for (int i = 0; i < 40; ++i) exponents.push_back(rng() % 1300);
  for (uint64_t k : exponents) {
    for (int trial = 0; trial < 6; ++trial) {
      const BigInt a = RandomBigInt(&rng, 1 + rng() % 44, true);
      const BigInt divisor = (trial & 1) ? -BigInt::Pow2(k) : BigInt::Pow2(k);
      ExpectDivModMatches(a, divisor, "2^" + std::to_string(k));
      BigInt q, r;
      a.DivMod(divisor, &q, &r);
      EXPECT_EQ(q.Abs(), a.Abs().ShiftRight(k)) << k;
    }
  }
}

TEST(BigIntDiff, DivisorWithTopBitSetNeedsNoNormalization) {
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t b_limbs = 2 + rng() % 12;
    // Top limb in [2^31, 2^32): Algorithm D's normalization shift is zero.
    BigInt b = RandomBigInt(&rng, b_limbs - 1, false) +
               BigInt(static_cast<int64_t>(0x80000000u | (rng() & 0x7fffffffu)))
                   .ShiftLeft(32 * (b_limbs - 1));
    if (rng() & 1) b = -b;
    const BigInt a = RandomBigInt(&rng, b_limbs + rng() % 20, true);
    ExpectDivModMatches(a, b, "top bit set, trial " + std::to_string(trial));
  }
}

TEST(BigIntDiff, EqualLengthOperands) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t limbs = 1 + rng() % 30;
    const BigInt a = RandomBigInt(&rng, limbs, true);
    const BigInt b = RandomBigInt(&rng, limbs, true);
    ExpectDivModMatches(a, b, "equal length " + std::to_string(limbs));
    ExpectDivModMatches(a, a, "self");
    ExpectDivModMatches(a, a + (a.is_negative() ? BigInt(-1) : BigInt(1)),
                        "just above");
  }
}

TEST(BigIntDiff, AddBackStepVectors) {
  // Dividend/divisor pairs (little-endian limbs) whose first trial quotient
  // survives the two-limb test yet is one too large, so Algorithm D must
  // add the divisor back (step D6), plus the trial-quotient edge cases
  // around it (qhat == base, multiply-subtract borrows through every limb).
  struct Case {
    std::vector<uint32_t> u;
    std::vector<uint32_t> v;
  };
  const std::vector<Case> cases = {
      {{3, 0, 0x80000000u}, {1, 0, 0x20000000u}},
      {{3, 0, 0x00008000u}, {1, 0, 0x00002000u}},
      {{0, 0, 0x00008000u, 0x00007fffu}, {1, 0, 0x00008000u}},
      {{0, 0x0000fffeu, 0, 0x00008000u}, {0x0000ffffu, 0, 0x00008000u}},
      {{0, 0xfffffffeu, 0, 0x80000000u}, {0x0000ffffu, 0, 0x80000000u}},
      {{0, 0xfffffffeu, 0, 0x80000000u}, {0xffffffffu, 0, 0x80000000u}},
      {{0, 0x0000fffeu, 0x00008000u}, {0x0000ffffu, 0x00008000u}},
      {{0, 0, 0, 0, 0x7fffffffu}, {0xffffffffu, 0xffffffffu, 0x7fffffffu}},
  };
  for (const Case& c : cases) {
    const BigInt u = FromLimbs(c.u);
    const BigInt v = FromLimbs(c.v);
    ExpectDivModMatches(u, v, "add-back " + u.ToString());
    ExpectDivModMatches(-u, v, "add-back negated");
  }
}

TEST(BigIntDiff, InPlaceOperatorsMatchOutOfPlace) {
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 500; ++trial) {
    const BigInt a = RandomBigInt(&rng, 1 + rng() % 12, true);
    const BigInt b = RandomBigInt(&rng, 1 + rng() % 12, true);
    BigInt x = a;
    x += b;
    EXPECT_EQ(x, BigInt(a) + b);
    EXPECT_EQ(x - b, a);
    x = a;
    x -= b;
    EXPECT_EQ(x + b, a);
    EXPECT_EQ(x, -(b - a));
    x = a;
    x *= b;
    EXPECT_EQ(x, a * b);
    // Self-aliasing.
    x = a;
    x += x;
    EXPECT_EQ(x, a * BigInt(2));
    x = a;
    x -= x;
    EXPECT_TRUE(x.is_zero());
    x = a;
    x *= x;
    EXPECT_EQ(x, a * a);
    BigInt q = a;
    BigInt r;
    q.DivMod(b, &q, &r);  // output aliasing the dividend
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigIntDiff, InPlaceMultiplyByUnitMatchesOutOfPlace) {
  // operator*= short-cuts a factor of magnitude 1 on either side; the result
  // must equal the full limb product, sign and zero included, at limb
  // boundaries.
  std::vector<BigInt> values = {BigInt(0), BigInt(1), BigInt(2)};
  for (uint64_t bits : {31, 32, 33, 63, 64, 65, 95, 96, 97, 128}) {
    values.push_back(BigInt::Pow2(bits));
    values.push_back(BigInt::Pow2(bits) - BigInt(1));
    values.push_back(BigInt::Pow2(bits) + BigInt(1));
  }
  const size_t positives = values.size();
  for (size_t i = 0; i < positives; ++i) values.push_back(-values[i]);
  for (const BigInt& unit : {BigInt(1), BigInt(-1)}) {
    for (const BigInt& x : values) {
      const std::string context = unit.ToString() + " and " + x.ToString();
      BigInt left = unit;
      left *= x;  // 1·x, (−1)·x, 1·0
      EXPECT_EQ(left, unit * x) << context;
      EXPECT_EQ(left.sign(), unit.sign() * x.sign()) << context;
      EXPECT_EQ(left.ToString(), (unit * x).ToString()) << context;
      BigInt right = x;
      right *= unit;  // x·1, x·(−1), 0·1
      EXPECT_EQ(right, x * unit) << context;
      EXPECT_EQ(right.sign(), unit.sign() * x.sign()) << context;
      EXPECT_EQ(right.BitLength(), x.BitLength()) << context;
    }
    BigInt self = unit;
    self *= self;  // aliasing: (±1)·(±1) == 1
    EXPECT_TRUE(self.is_one()) << unit.ToString();
  }
}

// ---------------------------------------------------------------------------
// Rational canonical form
// ---------------------------------------------------------------------------

void ExpectCanonical(const Rational& x, const std::string& context) {
  EXPECT_GT(x.den().sign(), 0) << context << ": " << x.ToString();
  EXPECT_TRUE(BigInt::Gcd(x.num(), x.den()).is_one())
      << context << ": " << x.ToString();
}

Rational RandomRational(std::mt19937_64* rng) {
  const BigInt num = RandomBigInt(rng, 1 + (*rng)() % 6, true);
  // Half the denominators dyadic, as in the DWT workloads; the rest mixed.
  BigInt den = ((*rng)() & 1)
                   ? BigInt::Pow2((*rng)() % 200)
                   : RandomBigInt(rng, 1 + (*rng)() % 6, false)
                         .ShiftLeft((*rng)() % 40);
  return Rational(num, den);
}

TEST(BigIntDiff, RationalOpsStayCanonicalAndMatchNaive) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 1500; ++trial) {
    const Rational x = RandomRational(&rng);
    const Rational y = (trial % 5 == 0) ? Rational::Zero() : RandomRational(&rng);
    const std::string context = x.ToString() + " , " + y.ToString();
    ExpectCanonical(x, context);

    const Rational sum = x + y;
    const Rational diff = x - y;
    const Rational prod = x * y;
    ExpectCanonical(sum, "sum " + context);
    ExpectCanonical(diff, "diff " + context);
    ExpectCanonical(prod, "prod " + context);
    ExpectCanonical(x.Complement(), "complement " + context);
    EXPECT_EQ(sum, Rational(x.num() * y.den() + y.num() * x.den(),
                            x.den() * y.den())) << context;
    EXPECT_EQ(diff, Rational(x.num() * y.den() - y.num() * x.den(),
                             x.den() * y.den())) << context;
    EXPECT_EQ(prod, Rational(x.num() * y.num(), x.den() * y.den())) << context;
    EXPECT_EQ(x.Complement(), Rational(x.den() - x.num(), x.den())) << context;
    // Canonical form is unique, so structural equality must hold too.
    EXPECT_EQ(sum.num(), Rational(x.num() * y.den() + y.num() * x.den(),
                                  x.den() * y.den()).num()) << context;
    if (!y.is_zero()) {
      const Rational quot = x / y;
      ExpectCanonical(quot, "quot " + context);
      EXPECT_EQ(quot, Rational(x.num() * y.den(), x.den() * y.num())) << context;
      EXPECT_EQ(quot * y, x) << context;
    }
    EXPECT_EQ(x + y - y, x) << context;
    EXPECT_EQ(x.Compare(y), (x - y).num().sign()) << context;
  }
  // Complement of one is canonical zero.
  EXPECT_EQ(Rational::One().Complement().den(), BigInt(1));
  EXPECT_TRUE(Rational::One().Complement().is_zero());
}

// ---------------------------------------------------------------------------
// Correctly rounded conversion to double
// ---------------------------------------------------------------------------

TEST(BigIntDiff, ToDoubleLargeAndTinyValues) {
  // Representable values the old scaled division sent to 0.
  const BigInt three_pow = BigInt::Pow2(1000) * BigInt(3);
  EXPECT_EQ(Rational(three_pow, BigInt(1)).ToDouble(), std::ldexp(3.0, 1000));
  EXPECT_EQ(three_pow.ToDouble(), std::ldexp(3.0, 1000));
  EXPECT_EQ(Rational(BigInt(3), BigInt::Pow2(960)).ToDouble(),
            std::ldexp(3.0, -960));
  EXPECT_EQ(Rational(BigInt(1), BigInt::Pow2(1050)).ToDouble(),
            std::ldexp(1.0, -1050));
  EXPECT_EQ(Rational(BigInt(-1), BigInt::Pow2(1074)).ToDouble(),
            -std::ldexp(1.0, -1074));
  // Beyond the range.
  EXPECT_EQ(Rational(BigInt(1), BigInt::Pow2(1076)).ToDouble(), 0.0);
  EXPECT_EQ(Rational(BigInt(1), BigInt::Pow2(5000)).ToDouble(), 0.0);
  EXPECT_EQ(BigInt::Pow2(1024).ToDouble(), HUGE_VAL);
  EXPECT_EQ((-BigInt::Pow2(3000)).ToDouble(), -HUGE_VAL);
  EXPECT_EQ(Rational(BigInt::Pow2(1030), BigInt(3)).ToDouble(), HUGE_VAL);
  // Largest finite double, and the value that rounds up past it.
  const BigInt max_mantissa = BigInt::Pow2(53) - BigInt(1);
  EXPECT_EQ(max_mantissa.ShiftLeft(971).ToDouble(), std::ldexp(0x1.fffffffffffffp0, 1023));
  EXPECT_EQ((max_mantissa.ShiftLeft(1) + BigInt(1)).ShiftLeft(970).ToDouble(),
            HUGE_VAL);
}

TEST(BigIntDiff, ToDoubleRoundsHalfToEven) {
  const BigInt two53 = BigInt::Pow2(53);
  for (int64_t shift : {0, 7, 60, 500, 1040}) {
    const BigInt den = BigInt::Pow2(static_cast<uint64_t>(shift) + 1);
    const int e = -static_cast<int>(shift) - 1;
    // Halfway cases: (2^54 + 2)/2 = 2^53 + 1 ties to the even 2^53;
    // 2^53 + 3 ties up to 2^53 + 4.
    EXPECT_EQ(Rational((two53 + BigInt(1)).ShiftLeft(1), den).ToDouble(),
              std::ldexp(0x1p53, e + 1)) << shift;
    EXPECT_EQ(Rational((two53 + BigInt(3)).ShiftLeft(1), den).ToDouble(),
              std::ldexp(0x1p53 + 4, e + 1)) << shift;
    // A sticky bit past the tie rounds up.
    EXPECT_EQ(Rational((two53 + BigInt(1)).ShiftLeft(40) + BigInt(1),
                       BigInt::Pow2(static_cast<uint64_t>(shift) + 40))
                  .ToDouble(),
              std::ldexp(0x1p53 + 2, -static_cast<int>(shift))) << shift;
  }
  // Integers: BigInt::ToDouble ties the same way.
  EXPECT_EQ((two53 + BigInt(1)).ToDouble(), 0x1p53);
  EXPECT_EQ((two53 + BigInt(3)).ToDouble(), 0x1p53 + 4);
  EXPECT_EQ((two53 + BigInt(1)).ShiftLeft(200).ToDouble(), std::ldexp(0x1p53, 200));
  EXPECT_EQ(((two53 + BigInt(1)).ShiftLeft(200) + BigInt(1)).ToDouble(),
            std::ldexp(0x1p53 + 2, 200));
  // Subnormal ties: 2^-1075 is half the smallest subnormal (ties to 0),
  // 3·2^-1075 ties to the even 2·2^-1074.
  EXPECT_EQ(Rational(BigInt(1), BigInt::Pow2(1075)).ToDouble(), 0.0);
  EXPECT_EQ(Rational(BigInt(3), BigInt::Pow2(1075)).ToDouble(),
            std::ldexp(2.0, -1074));
  EXPECT_EQ(Rational(BigInt(3), BigInt::Pow2(1076)).ToDouble(),
            std::ldexp(1.0, -1074));
}

TEST(BigIntDiff, ToDoubleMatchesLdexpAcrossTheRange) {
  std::mt19937_64 rng(29);
  for (int trial = 0; trial < 3000; ++trial) {
    // Exactly representable m·2^-k across the normal and subnormal ranges:
    // any k <= 1074 with m < 2^53 is a multiple of 2^-1074.
    const int64_t m = static_cast<int64_t>(rng() >> 11) | 1;
    const int k = static_cast<int>(rng() % 1075);
    const int64_t signed_m = (trial & 1) ? -m : m;
    EXPECT_EQ(Rational(BigInt(signed_m), BigInt::Pow2(static_cast<uint64_t>(k)))
                  .ToDouble(),
              std::ldexp(static_cast<double>(signed_m), -k)) << m << " 2^-" << k;
    const int up = static_cast<int>(rng() % 960);
    EXPECT_EQ(BigInt(signed_m).ShiftLeft(static_cast<uint64_t>(up)).ToDouble(),
              std::ldexp(static_cast<double>(signed_m), up));

    // Non-dyadic: n/d with n, d < 2^53 is one correctly rounded IEEE
    // division, and a power-of-two scale keeps it so while it stays normal.
    const int64_t n = static_cast<int64_t>(rng() >> (11 + rng() % 40)) + 1;
    const int64_t d = static_cast<int64_t>(rng() >> (11 + rng() % 40)) + 1;
    const double quotient = static_cast<double>(n) / static_cast<double>(d);
    EXPECT_EQ(Rational(n, d).ToDouble(), quotient) << n << "/" << d;
    const int scale = static_cast<int>(rng() % 1900) - 950;
    const double want = std::ldexp(quotient, scale);
    if (std::isnormal(want)) {
      const Rational scaled =
          scale >= 0 ? Rational(BigInt(n).ShiftLeft(static_cast<uint64_t>(scale)), BigInt(d))
                     : Rational(BigInt(n), BigInt(d).ShiftLeft(static_cast<uint64_t>(-scale)));
      EXPECT_EQ(scaled.ToDouble(), want) << n << "/" << d << " 2^" << scale;
    }
  }
}

TEST(BigIntDiff, ToDoubleOfIntegersMatchesInt64Conversion) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    const int64_t v = static_cast<int64_t>(rng()) >> (rng() % 63);
    EXPECT_EQ(BigInt(v).ToDouble(), static_cast<double>(v)) << v;
    EXPECT_EQ(Rational(v).ToDouble(), static_cast<double>(v)) << v;
  }
}

}  // namespace
}  // namespace phom
