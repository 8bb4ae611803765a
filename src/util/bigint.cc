#include "src/util/bigint.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace phom {

namespace {
constexpr uint64_t kLimbBits = 32;
constexpr uint64_t kLimbBase = uint64_t{1} << kLimbBits;
}  // namespace

BigInt::BigInt(int sign, Mag mag)
    : sign_(sign), mag_(std::move(mag)) {
  Normalize(&mag_);
  if (mag_.empty()) sign_ = 0;
  PHOM_CHECK(mag_.empty() == (sign_ == 0));
}

BigInt::BigInt(int64_t value) {
  if (value == 0) {
    sign_ = 0;
    return;
  }
  sign_ = value > 0 ? 1 : -1;
  // Avoid UB on INT64_MIN by going through uint64_t.
  uint64_t mag = value > 0 ? static_cast<uint64_t>(value)
                           : ~static_cast<uint64_t>(value) + 1;
  mag_.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
  if (mag >> kLimbBits) mag_.push_back(static_cast<uint32_t>(mag >> kLimbBits));
}

void BigInt::Normalize(Mag* mag) {
  while (!mag->empty() && mag->back() == 0) mag->pop_back();
}

int BigInt::CompareMag(const Mag& a, const Mag& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::AddMagInPlace(Mag* a, const Mag& b) {
  const size_t nb = b.size();  // read before any resize: b may be *a
  if (a->size() < nb) a->resize(nb, 0);
  uint32_t* out = a->data();
  uint64_t carry = 0;
  for (size_t i = 0; i < nb; ++i) {
    const uint64_t sum = carry + out[i] + b[i];
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  for (size_t i = nb; carry != 0 && i < a->size(); ++i) {
    const uint64_t sum = carry + out[i];
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> kLimbBits;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagInPlace(Mag* a, const Mag& b) {
  assert(CompareMag(*a, b) >= 0);  // callers have just compared
  uint32_t* out = a->data();
  uint64_t borrow = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    const uint64_t diff = uint64_t{out[i]} - b[i] - borrow;
    out[i] = static_cast<uint32_t>(diff);
    borrow = (diff >> kLimbBits) & 1;  // wrapped below zero
  }
  for (size_t i = b.size(); borrow != 0 && i < a->size(); ++i) {
    const uint64_t diff = uint64_t{out[i]} - borrow;
    out[i] = static_cast<uint32_t>(diff);
    borrow = (diff >> kLimbBits) & 1;
  }
  Normalize(a);
}

void BigInt::SubMagFromInPlace(Mag* a, const Mag& b) {
  assert(CompareMag(b, *a) >= 0);
  const size_t na = a->size();
  a->resize(b.size(), 0);
  uint32_t* out = a->data();
  uint64_t borrow = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    const uint64_t subtrahend = i < na ? out[i] : 0;
    const uint64_t diff = uint64_t{b[i]} - subtrahend - borrow;
    out[i] = static_cast<uint32_t>(diff);
    borrow = (diff >> kLimbBits) & 1;
  }
  Normalize(a);
}

BigInt::Mag BigInt::MulMag(const Mag& a, const Mag& b) {
  if (a.empty() || b.empty()) return {};
  Mag out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t ai = a[i];
    if (ai == 0) continue;
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      // (2^32-1)^2 + 2·(2^32-1) == 2^64-1: no overflow.
      const uint64_t cur = ai * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> kLimbBits;
    }
    out[i + b.size()] = static_cast<uint32_t>(carry);  // untouched so far
  }
  Normalize(&out);
  return out;
}

BigInt& BigInt::AddSigned(const BigInt& other, int sign) {
  if (sign == 0) return *this;
  if (sign_ == 0) {
    mag_ = other.mag_;
    sign_ = sign;
    return *this;
  }
  if (sign_ == sign) {
    AddMagInPlace(&mag_, other.mag_);
    return *this;
  }
  const int cmp = CompareMag(mag_, other.mag_);
  if (cmp == 0) {
    mag_.clear();
    sign_ = 0;
  } else if (cmp > 0) {
    SubMagInPlace(&mag_, other.mag_);
  } else {
    SubMagFromInPlace(&mag_, other.mag_);
    sign_ = sign;
  }
  return *this;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out(*this);
  return std::move(out += other);
}

BigInt BigInt::operator-(const BigInt& other) const {
  BigInt out(*this);
  return std::move(out -= other);
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (sign_ == 0 || other.sign_ == 0) return BigInt();
  return BigInt(sign_ * other.sign_, MulMag(mag_, other.mag_));
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (sign_ == 0) return *this;
  if (other.sign_ == 0) {
    mag_.clear();
    sign_ = 0;
    return *this;
  }
  // A factor of magnitude 1 (every product that starts from 1) needs no limb
  // product: the result is the other factor's magnitude, signs multiplied.
  if (mag_.size() == 1 && mag_[0] == 1) {
    mag_ = other.mag_;
  } else if (other.mag_.size() != 1 || other.mag_[0] != 1) {
    mag_ = MulMag(mag_, other.mag_);
  }
  sign_ *= other.sign_;
  return *this;
}

BigInt BigInt::Abs() const { return BigInt(sign_ == 0 ? 0 : 1, mag_); }

uint64_t BigInt::BitLength() const {
  if (mag_.empty()) return 0;
  uint32_t top = mag_.back();
  uint64_t bits = (mag_.size() - 1) * kLimbBits;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(uint64_t i) const {
  size_t limb = i / kLimbBits;
  if (limb >= mag_.size()) return false;
  return (mag_[limb] >> (i % kLimbBits)) & 1u;
}

bool BigInt::IsPowerOfTwo() const {
  if (sign_ <= 0) return false;
  return TrailingZeroBits() + 1 == BitLength();
}

uint64_t BigInt::TrailingZeroBitsMag(const Mag& mag) {
  uint64_t bits = 0;
  for (uint32_t limb : mag) {
    if (limb != 0) return bits + static_cast<uint64_t>(__builtin_ctz(limb));
    bits += kLimbBits;
  }
  return 0;  // zero
}

uint64_t BigInt::TrailingZeroBits() const { return TrailingZeroBitsMag(mag_); }

BigInt BigInt::ShiftLeft(uint64_t bits) const {
  if (sign_ == 0 || bits == 0) return *this;
  const size_t limb_shift = bits / kLimbBits;
  const uint64_t bit_shift = bits % kLimbBits;
  Mag out(limb_shift + mag_.size() + 1, 0);
  for (size_t i = 0; i < mag_.size(); ++i) {
    // 64-bit lanes: bit_shift may be 0, and a 32-bit shift by 32 is UB.
    const uint64_t wide = uint64_t{mag_[i]} << bit_shift;
    out[limb_shift + i] |= static_cast<uint32_t>(wide);
    out[limb_shift + i + 1] = static_cast<uint32_t>(wide >> kLimbBits);
  }
  return BigInt(sign_, std::move(out));
}

void BigInt::ShiftRightMagInPlace(Mag* mag, uint64_t bits) {
  const size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= mag->size()) {
    mag->clear();
    return;
  }
  const uint64_t bit_shift = bits % kLimbBits;
  const size_t n = mag->size() - limb_shift;
  uint32_t* limbs = mag->data();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t next =
        i + 1 < n ? uint64_t{limbs[limb_shift + i + 1]} << kLimbBits : 0;
    limbs[i] = static_cast<uint32_t>((next | limbs[limb_shift + i]) >> bit_shift);
  }
  mag->resize(n);
  Normalize(mag);
}

BigInt BigInt::ShiftRight(uint64_t bits) const {
  BigInt out(*this);
  ShiftRightMagInPlace(&out.mag_, bits);
  if (out.mag_.empty()) out.sign_ = 0;
  return out;
}

void BigInt::DivModKnuth(const Mag& u, const Mag& v, Mag* q, Mag* r) {
  const size_t n = v.size();
  const size_t m = u.size() - n;
  PHOM_CHECK(n >= 2 && u.size() >= n && v.back() != 0);
  // D1: normalize so the divisor's top limb has its high bit set; then the
  // two-limb trial quotient below is at most 2 too large. All shifts run in
  // 64-bit lanes because s may be 0 (a 32-bit shift by 32 - s is UB).
  const uint64_t s = static_cast<uint64_t>(__builtin_clz(v.back()));
  Mag vn(n);
  Mag un(u.size() + 1);
  for (size_t i = n; i-- > 0;) {
    const uint64_t low = i > 0 ? uint64_t{v[i - 1]} : 0;
    vn[i] = static_cast<uint32_t>(((uint64_t{v[i]} << kLimbBits | low) << s) >>
                                  kLimbBits);
  }
  un[u.size()] = static_cast<uint32_t>(uint64_t{u.back()} >> (kLimbBits - s));
  for (size_t i = u.size(); i-- > 0;) {
    const uint64_t low = i > 0 ? uint64_t{u[i - 1]} : 0;
    un[i] = static_cast<uint32_t>(((uint64_t{u[i]} << kLimbBits | low) << s) >>
                                  kLimbBits);
  }
  const uint64_t v_top = vn[n - 1];
  const uint64_t v_next = vn[n - 2];
  q->assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two limbs, refine with the third.
    const uint64_t top = uint64_t{un[j + n]} << kLimbBits | un[j + n - 1];
    uint64_t qhat = top / v_top;
    uint64_t rhat = top % v_top;
    while (qhat >= kLimbBase ||
           qhat * v_next > (rhat << kLimbBits | un[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kLimbBase) break;
    }
    // D4: un[j .. j+n] -= qhat · vn.
    uint64_t carry = 0;
    uint64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * vn[i] + carry;
      carry = product >> kLimbBits;
      const uint64_t diff =
          uint64_t{un[i + j]} - (product & 0xffffffffu) - borrow;
      un[i + j] = static_cast<uint32_t>(diff);
      borrow = (diff >> kLimbBits) & 1;
    }
    const uint64_t diff = uint64_t{un[j + n]} - carry - borrow;
    un[j + n] = static_cast<uint32_t>(diff);
    // D6: qhat was one too large (rare): add the divisor back once.
    if (diff >> kLimbBits) {
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = uint64_t{un[i + j]} + vn[i] + add_carry;
        un[i + j] = static_cast<uint32_t>(sum);
        add_carry = sum >> kLimbBits;
      }
      un[j + n] = static_cast<uint32_t>(un[j + n] + add_carry);
    }
    (*q)[j] = static_cast<uint32_t>(qhat);
  }
  // D8: the remainder is the low n limbs of un, unnormalized.
  un.resize(n + 1);
  un[n] = 0;
  ShiftRightMagInPlace(&un, s);
  *r = std::move(un);
  Normalize(q);
}

void BigInt::DivMod(const BigInt& divisor, BigInt* quotient,
                    BigInt* remainder) const {
  PHOM_CHECK_MSG(!divisor.is_zero(), "BigInt division by zero");
  const int q_sign = sign_ * divisor.sign_;
  const int r_sign = sign_;
  Mag q;
  Mag r;
  const Mag& d = divisor.mag_;
  const uint64_t d_zeros = TrailingZeroBitsMag(d);
  if (sign_ == 0 || CompareMag(mag_, d) < 0) {
    r = mag_;
  } else if (divisor.BitLength() == d_zeros + 1) {
    // |divisor| == 2^d_zeros: shift out the quotient, mask the remainder.
    q = mag_;
    ShiftRightMagInPlace(&q, d_zeros);
    r.assign(mag_.begin(), mag_.begin() + (d_zeros + kLimbBits - 1) / kLimbBits);
    if (d_zeros % kLimbBits != 0) {
      r.back() &= (uint32_t{1} << (d_zeros % kLimbBits)) - 1;
    }
    Normalize(&r);
  } else if (d.size() == 1) {
    q = mag_;
    const uint32_t rem = DivModSmall(&q, d[0]);
    if (rem != 0) r.push_back(rem);
  } else {
    DivModKnuth(mag_, d, &q, &r);
  }
  // Written last: the outputs may alias *this or the divisor.
  *quotient = BigInt(q_sign, std::move(q));
  *remainder = BigInt(r_sign, std::move(r));
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(other, &q, &r);
  return r;
}

int BigInt::Compare(const BigInt& other) const {
  if (sign_ != other.sign_) return sign_ < other.sign_ ? -1 : 1;
  int mag_cmp = CompareMag(mag_, other.mag_);
  return sign_ >= 0 ? mag_cmp : -mag_cmp;
}

BigInt BigInt::Pow2(uint64_t exponent) {
  Mag mag(exponent / kLimbBits + 1, 0);
  mag.back() = uint32_t{1} << (exponent % kLimbBits);
  return BigInt(1, std::move(mag));
}

namespace {

uint64_t LowU64(const std::vector<uint32_t>& mag) {
  uint64_t out = mag.empty() ? 0 : mag[0];
  if (mag.size() > 1) out |= uint64_t{mag[1]} << kLimbBits;
  return out;
}

/// Binary gcd of an odd x and any y.
uint64_t OddGcd64(uint64_t x, uint64_t y) {
  if (y == 0) return x;
  y >>= __builtin_ctzll(y);
  while (x != y) {
    if (x > y) std::swap(x, y);
    y -= x;
    y >>= __builtin_ctzll(y);
  }
  return x;
}

/// big mod x for a nonzero x that fits in 64 bits; no allocation.
uint64_t ModU64(const std::vector<uint32_t>& big, uint64_t x) {
  unsigned __int128 rem = 0;
  for (size_t i = big.size(); i-- > 0;) {
    rem = ((rem << kLimbBits) | big[i]) % x;  // rem < 2^64: fits in 96 bits
  }
  return static_cast<uint64_t>(rem);
}

}  // namespace

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (a.is_zero()) return b.Abs();
  if (b.is_zero()) return a.Abs();
  const uint64_t a_zeros = a.TrailingZeroBits();
  const uint64_t b_zeros = b.TrailingZeroBits();
  const uint64_t shift = std::min(a_zeros, b_zeros);
  // gcd(2^i·x, 2^j·y) == 2^min(i,j) · gcd(x, y) for odd x, y. A power of
  // two (every dyadic denominator) leaves x == 1: nothing to copy.
  if (a.BitLength() == a_zeros + 1 || b.BitLength() == b_zeros + 1) {
    return Pow2(shift);
  }
  // Stein's algorithm on two working copies: gcd(x, y) == gcd(x, y - x) and
  // powers of two drop out of an odd/odd pair, so every step is an in-place
  // subtract and shift. Once an operand fits in 64 bits one remainder
  // finishes the big side and the rest runs in registers.
  Mag x = a.mag_;
  Mag y = b.mag_;
  ShiftRightMagInPlace(&x, a_zeros);
  ShiftRightMagInPlace(&y, b_zeros);
  while (x.size() > 2 && y.size() > 2) {
    const int cmp = CompareMag(x, y);
    if (cmp == 0) break;
    if (cmp > 0) std::swap(x, y);
    SubMagInPlace(&y, x);  // odd - odd: even and nonzero
    ShiftRightMagInPlace(&y, TrailingZeroBitsMag(y));
  }
  if (x.size() <= 2 || y.size() <= 2) {
    if (x.size() > 2) std::swap(x, y);  // x now fits in 64 bits, odd
    const uint64_t small = LowU64(x);
    const uint64_t g = OddGcd64(small, ModU64(y, small));
    x.assign({static_cast<uint32_t>(g), static_cast<uint32_t>(g >> kLimbBits)});
  }
  BigInt g(1, std::move(x));
  return shift == 0 ? g : g.ShiftLeft(shift);
}

uint32_t BigInt::DivModSmall(Mag* mag, uint32_t divisor) {
  PHOM_CHECK(divisor != 0);
  uint64_t rem = 0;
  for (size_t i = mag->size(); i-- > 0;) {
    uint64_t cur = (rem << kLimbBits) | (*mag)[i];
    (*mag)[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  Normalize(mag);
  return static_cast<uint32_t>(rem);
}

void BigInt::MulSmallAdd(Mag* mag, uint32_t factor, uint32_t addend) {
  uint64_t carry = addend;
  for (uint32_t& limb : *mag) {
    uint64_t cur = static_cast<uint64_t>(limb) * factor + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffu);
    carry = cur >> kLimbBits;
  }
  while (carry) {
    mag->push_back(static_cast<uint32_t>(carry & 0xffffffffu));
    carry >>= kLimbBits;
  }
  Normalize(mag);
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::Invalid("empty integer literal");
  int sign = 1;
  size_t pos = 0;
  if (text[0] == '-' || text[0] == '+') {
    sign = text[0] == '-' ? -1 : 1;
    pos = 1;
  }
  if (pos == text.size()) return Status::Invalid("sign without digits");
  std::vector<uint32_t> mag;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9') {
      return Status::Invalid("invalid digit in integer literal: " +
                             std::string(text));
    }
    MulSmallAdd(&mag, 10, static_cast<uint32_t>(c - '0'));
  }
  Normalize(&mag);
  int final_sign = mag.empty() ? 0 : sign;  // read before the move below
  return BigInt(final_sign, std::move(mag));
}

std::string BigInt::ToString() const {
  if (sign_ == 0) return "0";
  std::vector<uint32_t> mag = mag_;
  std::string digits;
  while (!mag.empty()) {
    uint32_t chunk = DivModSmall(&mag, 1000000000u);
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::ToDouble() const {
  if (sign_ == 0) return 0.0;
  const uint64_t bits = BitLength();
  const double sign = sign_ < 0 ? -1.0 : 1.0;
  if (bits > 1024) return sign * HUGE_VAL;  // >= 2^1024: past DBL_MAX
  // The top 64 bits, with every bit below them folded into bit 0 as a
  // sticky bit: the one uint64 -> double conversion then rounds exactly as
  // the full value would (53 bits kept, round bit above bit 0).
  const uint64_t shift = bits > 64 ? bits - 64 : 0;
  const size_t limb = shift / kLimbBits;
  unsigned __int128 window = 0;
  for (size_t i = std::min(limb + 3, mag_.size()); i-- > limb;) {
    window = window << kLimbBits | mag_[i];
  }
  uint64_t top = static_cast<uint64_t>(window >> (shift % kLimbBits));
  bool sticky = (mag_[limb] & ((uint32_t{1} << (shift % kLimbBits)) - 1)) != 0;
  for (size_t i = 0; i < limb && !sticky; ++i) sticky = mag_[i] != 0;
  if (sticky) top |= 1;
  return sign * std::ldexp(static_cast<double>(top), static_cast<int>(shift));
}

std::optional<int64_t> BigInt::ToInt64() const {
  if (BitLength() > 63) {
    // The only 64-bit-magnitude value that fits is INT64_MIN (= -2^63).
    bool is_int64_min =
        sign_ < 0 && BitLength() == 64 && TrailingZeroBits() == 63;
    if (!is_int64_min) return std::nullopt;
  }
  uint64_t mag = 0;
  for (size_t i = mag_.size(); i-- > 0;) {
    mag = (mag << kLimbBits) | mag_[i];
  }
  // Negate in unsigned arithmetic: -2^63 has no positive int64_t twin.
  if (sign_ < 0) return static_cast<int64_t>(~mag + 1);
  return static_cast<int64_t>(mag);
}

size_t BigInt::Hash() const {
  size_t h = static_cast<size_t>(sign_) * 0x9e3779b97f4a7c15ull;
  for (uint32_t limb : mag_) {
    h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace phom
