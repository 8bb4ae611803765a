#include "src/lineage/interval_dp.h"

#include <algorithm>

#include "src/util/status.h"

namespace phom {

template <class Num>
Num IntervalDnfProbabilityT(const std::vector<Num>& probs,
                            const std::vector<uint32_t>& path,
                            std::vector<EdgeInterval> intervals) {
  using Ops = NumericOps<Num>;
  const uint32_t kNone = UINT32_MAX;
  size_t L = path.size();
  if (intervals.empty()) return Ops::Zero();
  for (const EdgeInterval& iv : intervals) {
    PHOM_CHECK_MSG(iv.first <= iv.second && iv.second < L,
                   "interval out of range");
  }

  // Keep only inclusion-minimal intervals: scan by lo descending, keeping an
  // interval iff its hi is smaller than every hi seen so far.
  std::sort(intervals.begin(), intervals.end(),
            [](const EdgeInterval& a, const EdgeInterval& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  // earliest_lo_ending_at[hi] = lo of the (unique) minimal interval ending
  // at hi, or kNone.
  std::vector<uint32_t> lo_ending_at(L, kNone);
  uint32_t min_hi = kNone;
  for (const EdgeInterval& iv : intervals) {
    if (min_hi == kNone || iv.second < min_hi) {
      min_hi = iv.second;
      lo_ending_at[iv.second] = iv.first;
    }
  }

  // dist[s] = probability that the process survives (no clause fired) with
  // current run start s; s == k+1 encodes "edge k absent". Edges processed
  // left to right.
  std::vector<Num> dist(L + 2, Ops::Zero());
  dist[0] = Ops::One();
  for (uint32_t k = 0; k < L; ++k) {
    std::vector<Num> next(L + 2, Ops::Zero());
    const Num& p = probs[path[k]];
    Num q = Ops::Complement(p);
    for (uint32_t s = 0; s <= k; ++s) {
      if (Ops::IsZero(dist[s])) continue;
      // Edge k present: run start stays s; clause [lo, k] fires iff s <= lo.
      bool fires = lo_ending_at[k] != kNone && s <= lo_ending_at[k];
      if (!fires && !Ops::IsZero(p)) next[s] += dist[s] * p;
      if (!Ops::IsZero(q)) next[k + 1] += dist[s] * q;
    }
    // s == k means previous edge absent (run start would be k).
    // (Covered by the loop above since s ranges to k.)
    dist = std::move(next);
  }
  // The run-start states are disjoint events, so their survival
  // probabilities sum — compensated for the interval backend (numeric.h),
  // the plain sequential sum bit-for-bit on the exact/double backends.
  DisjointSumAccumulator<Num> survive;
  for (const Num& r : dist) survive.Add(r);
  return Ops::Complement(survive.Total());
}

template Rational IntervalDnfProbabilityT<Rational>(
    const std::vector<Rational>&, const std::vector<uint32_t>&,
    std::vector<EdgeInterval>);
template double IntervalDnfProbabilityT<double>(const std::vector<double>&,
                                                const std::vector<uint32_t>&,
                                                std::vector<EdgeInterval>);
template IntervalDouble IntervalDnfProbabilityT<IntervalDouble>(
    const std::vector<IntervalDouble>&, const std::vector<uint32_t>&,
    std::vector<EdgeInterval>);

}  // namespace phom
