#pragma once

#include <cassert>
#include <cmath>
#include <type_traits>
#include <vector>

#include "src/util/interval_double.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file numeric.h
/// Pluggable numeric policy for probability arithmetic. Every probability
/// kernel in the library (interval DP, Shannon expansion, d-DNNF evaluation,
/// the tree DPs, world enumeration) is templated on a number type `Num` and
/// instantiated for three backends:
///
///   * Rational — exact BigInt rationals, the default; answers are bit-exact
///     and the #P-hardness reductions can recover integer model counts.
///   * double   — IEEE floating point, the practical regime for serving
///     workloads (cf. Amarilli–van Bremen–Gaspard–Meel 2023); answers carry
///     rounding error but every kernel stays within ~1e-12 relative error on
///     the sizes the exact backend can verify.
///   * IntervalDouble — a [lo, hi] double pair with outward directed
///     rounding (interval_double.h): float-speed arithmetic whose result
///     PROVABLY encloses the exact Rational answer, so the error bound is
///     machine-checked per answer instead of validated empirically.
///
/// Input probabilities always live on the instance as exact Rationals (the
/// model is exact); a backend choice only changes the arithmetic used to
/// COMBINE them. NumericOps<Num> is the small trait surface the kernels use.

namespace phom {

enum class NumericBackend {
  kExact = 0,      ///< exact BigInt rationals (default)
  kDouble,         ///< IEEE double: fast, approximate
  kIntervalDouble, ///< [lo, hi] doubles, directed rounding: fast, certified
};

inline const char* ToString(NumericBackend b) {
  switch (b) {
    case NumericBackend::kExact: return "exact";
    case NumericBackend::kDouble: return "double";
    case NumericBackend::kIntervalDouble: return "interval-double";
  }
  PHOM_CHECK_MSG(false, "unknown NumericBackend value");
}

template <class Num>
struct NumericOps;

template <>
struct NumericOps<Rational> {
  static constexpr NumericBackend kBackend = NumericBackend::kExact;
  static Rational Zero() { return Rational::Zero(); }
  static Rational One() { return Rational::One(); }
  static Rational From(const Rational& p) { return p; }
  static Rational Complement(const Rational& x) { return x.Complement(); }
  static bool IsZero(const Rational& x) { return x.is_zero(); }
  static bool IsOne(const Rational& x) { return x.is_one(); }
  static double ToDouble(const Rational& x) { return x.ToDouble(); }
};

/// Contract: the double backend never sees NaN. Instance probabilities enter
/// as exact Rationals in [0, 1] (finite after From), and every combining
/// operation the kernels perform (+, *, 1-x on finite operands) preserves
/// finiteness — so a NaN here means a bug upstream, not data. Debug builds
/// assert at the IsZero/IsOne decision points, where a NaN would otherwise
/// silently compare unequal to both 0 and 1 and corrupt short-circuit logic.
template <>
struct NumericOps<double> {
  static constexpr NumericBackend kBackend = NumericBackend::kDouble;
  static double Zero() { return 0.0; }
  static double One() { return 1.0; }
  static double From(const Rational& p) { return p.ToDouble(); }
  static double Complement(double x) { return 1.0 - x; }
  static bool IsZero(double x) {
    assert(!std::isnan(x) && "NaN probability in the double backend");
    // Explicitly treat IEEE negative zero as zero: rounding can produce
    // -0.0 (e.g. the complement of a probability that rounded to exactly
    // 1.0), and it must short-circuit the same way +0.0 does. The
    // comparison below does exactly that (-0.0 == 0.0 under IEEE 754);
    // std::signbit is NOT consulted.
    return x == 0.0;
  }
  static bool IsOne(double x) {
    assert(!std::isnan(x) && "NaN probability in the double backend");
    return x == 1.0;
  }
  static double ToDouble(double x) { return x; }
};

/// Certified-enclosure backend. From() proves its interval by exact Rational
/// comparison (Rational::FromDouble is lossless), so the enclosure invariant
/// holds END TO END: input conversion, every kernel op (outward-rounded in
/// interval_double.h), and the final [lo, hi] the caller reads. Like the
/// double backend, NaN endpoints indicate an upstream bug, never data.
template <>
struct NumericOps<IntervalDouble> {
  static constexpr NumericBackend kBackend = NumericBackend::kIntervalDouble;
  static IntervalDouble Zero() { return IntervalDouble(0.0, 0.0); }
  static IntervalDouble One() { return IntervalDouble(1.0, 1.0); }
  static IntervalDouble From(const Rational& p) {
    assert(p.IsProbability() && "interval backend converts probabilities");
    const double d = p.ToDouble();
    double lo = d;
    double hi = d;
    // ToDouble is correctly rounded, so p lies between d and its neighbour
    // on the side the exact comparison picks: one step widens the point to
    // the tightest enclosure, and exactly representable inputs (0, 1,
    // dyadics) stay points. The check proves the step was enough.
    const int side = Rational::FromDouble(d).Compare(p);
    if (side > 0) lo = interval_internal::Down(d);
    if (side < 0) hi = interval_internal::Up(d);
    PHOM_CHECK_MSG(side == 0 || (side > 0 ? Rational::FromDouble(lo) <= p
                                          : Rational::FromDouble(hi) >= p),
                   "Rational::ToDouble is not correctly rounded");
    return IntervalDouble(lo, hi).ClampedToUnit();
  }
  static IntervalDouble Complement(const IntervalDouble& x) {
    // Compensated directed rounding (interval_double.h): 1 − x is EXACT for
    // x in [1/2, 2] (Sterbenz) and for every dyadic probability, so the
    // residual-aware subtraction keeps point complements point instead of
    // paying the old unconditional ulp each side.
    return IntervalDouble(interval_internal::DownSub(1.0, x.hi),
                          interval_internal::UpSub(1.0, x.lo))
        .ClampedToUnit();
  }
  // Zero/one tests demand the POINT interval: a nondegenerate interval only
  // brackets the exact value, so short-circuiting on it would be unsound.
  // Returning a conservative `false` merely skips an optimization — every
  // kernel's general path computes the same enclosure.
  static bool IsZero(const IntervalDouble& x) {
    assert(!std::isnan(x.lo) && !std::isnan(x.hi) &&
           "NaN probability in the interval backend");
    return x.lo == 0.0 && x.hi == 0.0;
  }
  static bool IsOne(const IntervalDouble& x) {
    assert(!std::isnan(x.lo) && !std::isnan(x.hi) &&
           "NaN probability in the interval backend");
    return x.lo == 1.0 && x.hi == 1.0;
  }
  static double ToDouble(const IntervalDouble& x) { return x.midpoint(); }
};

/// Streaming sum of the probabilities of DISJOINT events (deterministic-OR
/// gates, the run-start states of the interval DP): the generic accumulator
/// is exactly the sequential `+=` the kernels always used, so the Rational
/// and double backends are bit-identical to a plain loop. The IntervalDouble
/// specialization below compensates instead of clamp-and-round per step.
template <class Num>
class DisjointSumAccumulator {
 public:
  void Add(const Num& term) { total_ += term; }
  Num Total() const { return total_; }

 private:
  Num total_ = NumericOps<Num>::Zero();
};

/// Interval backend: both endpoints run through the compensated directed
/// accumulators (interval_double.h), so a k-term sum costs ulps of the
/// RESIDUAL stream instead of k outward roundings of the running sum. The
/// single final clamp is sound because the total — unlike a signed partial
/// sum — is itself the probability of the disjoint union.
template <>
class DisjointSumAccumulator<IntervalDouble> {
 public:
  void Add(const IntervalDouble& term) {
    lo_.Add(term.lo);
    hi_.Add(term.hi);
  }
  IntervalDouble Total() const {
    return IntervalDouble(lo_.Value(), hi_.Value()).ClampedToUnit();
  }

 private:
  interval_internal::DownSum lo_;
  interval_internal::UpSum hi_;
};

/// Streaming Pr(∨ parts) of INDEPENDENT events, 1 − Π(1 − p_i): Lemma 3.7
/// across instance components, and the independent-union node of a safe
/// plan. Add folds `none *= 1 − p` in call order and Total complements once,
/// so every backend reproduces the plain loop bit for bit.
template <class Num>
class IndependentUnionAccumulator {
 public:
  void Add(const Num& p) { none_ *= NumericOps<Num>::Complement(p); }
  Num Total() const { return NumericOps<Num>::Complement(none_); }

 private:
  Num none_ = NumericOps<Num>::One();  ///< Pr(no part holds)
};

/// The instance's exact edge probabilities converted into the backend type.
template <class Num>
std::vector<Num> ConvertProbs(const std::vector<Rational>& probs) {
  std::vector<Num> out;
  out.reserve(probs.size());
  for (const Rational& p : probs) out.push_back(NumericOps<Num>::From(p));
  return out;
}

/// Zero-copy view of exact probabilities in the backend type: the exact
/// backend references the caller's vector (which must outlive the view);
/// the double backend converts once. Keeps the hot exact paths free of
/// BigInt copies.
template <class Num>
class BackendProbs {
 public:
  explicit BackendProbs(const std::vector<Rational>& probs) {
    if constexpr (std::is_same_v<Num, Rational>) {
      probs_ = &probs;
    } else {
      converted_ = ConvertProbs<Num>(probs);
    }
  }

  const std::vector<Num>& operator*() const {
    if constexpr (std::is_same_v<Num, Rational>) {
      return *probs_;
    } else {
      return converted_;
    }
  }
  const Num& operator[](size_t i) const { return (**this)[i]; }

 private:
  const std::vector<Rational>* probs_ = nullptr;
  std::vector<Num> converted_;
};

}  // namespace phom
