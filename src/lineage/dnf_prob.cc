#include "src/lineage/dnf_prob.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "src/lineage/dnf_internal.h"

namespace phom {

Rational DnfProbabilityBruteForce(const MonotoneDnf& dnf,
                                  const std::vector<Rational>& probs) {
  PHOM_CHECK(probs.size() >= dnf.num_vars());
  PHOM_CHECK_MSG(dnf.num_vars() <= 30, "brute force limited to 30 variables");
  uint32_t n = dnf.num_vars();
  Rational total = Rational::Zero();
  std::vector<bool> assignment(n, false);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    for (uint32_t i = 0; i < n; ++i) assignment[i] = (mask >> i) & 1;
    if (!dnf.EvaluatesTrue(assignment)) continue;
    Rational w = Rational::One();
    for (uint32_t i = 0; i < n; ++i) {
      w *= assignment[i] ? probs[i] : probs[i].Complement();
    }
    total += w;
  }
  return total;
}

Rational DnfProbabilityInclusionExclusion(const MonotoneDnf& dnf,
                                          const std::vector<Rational>& probs) {
  MonotoneDnf reduced = dnf;
  reduced.RemoveSubsumed();
  if (reduced.IsConstantTrue()) return Rational::One();
  size_t k = reduced.num_clauses();
  PHOM_CHECK_MSG(k <= 20, "inclusion-exclusion limited to 20 clauses");
  Rational total = Rational::Zero();
  std::vector<uint32_t> union_vars;
  for (uint64_t mask = 1; mask < (uint64_t{1} << k); ++mask) {
    union_vars.clear();
    for (size_t i = 0; i < k; ++i) {
      if ((mask >> i) & 1) {
        const auto& c = reduced.clauses()[i];
        union_vars.insert(union_vars.end(), c.begin(), c.end());
      }
    }
    std::sort(union_vars.begin(), union_vars.end());
    union_vars.erase(std::unique(union_vars.begin(), union_vars.end()),
                     union_vars.end());
    Rational term = Rational::One();
    for (uint32_t v : union_vars) term *= probs[v];
    if (__builtin_popcountll(mask) % 2 == 1) {
      total += term;
    } else {
      total -= term;
    }
  }
  return total;
}

namespace {

using dnf_internal::Canonicalize;
using dnf_internal::ClauseInterner;
using dnf_internal::Clauses;
using dnf_internal::ClauseVecHash;
using dnf_internal::SplitVariableComponents;

template <class Num>
class ShannonEvaluator {
  using Ops = NumericOps<Num>;

 public:
  ShannonEvaluator(const std::vector<Num>& probs, std::vector<uint32_t> rank,
                   uint64_t max_states, ShannonStats* stats)
      : probs_(probs), rank_(std::move(rank)), max_states_(max_states),
        stats_(stats) {}

  Num Eval(Clauses clauses) {
    if (exhausted_) return Ops::Zero();
    Canonicalize(&clauses);
    if (clauses.empty()) return Ops::Zero();
    if (clauses.front().empty()) return Ops::One();

    // Memo key = the sequence of interned clause ids (canonical clause set
    // ⇔ canonical id sequence, so hit/miss behavior is identical to the old
    // serialize-every-variable key). Small states — at most kPackWidth
    // clauses, every id below kPackBase — pack the whole sequence into one
    // uint64 and hit an integer-keyed map: no allocation, one-word hashing.
    // Wider states fall back to the id-vector map, whose key is still a
    // fraction of the old full serialization. `ids_buf_` is reused across
    // calls; only a wide-map INSERT copies it.
    ids_buf_.clear();
    for (const auto& c : clauses) ids_buf_.push_back(interner_.Intern(c));
    uint64_t packed = 0;
    bool packable = ids_buf_.size() <= kPackWidth;
    if (packable) {
      for (uint32_t id : ids_buf_) {
        if (id + 1 >= kPackBase) {
          packable = false;
          break;
        }
        packed = (packed << 8) | (id + 1);  // +1: zero byte means "unused"
      }
    }
    if (packable) {
      auto it = packed_cache_.find(packed);
      if (it != packed_cache_.end()) {
        if (stats_ != nullptr) ++stats_->cache_hits;
        return it->second;
      }
    } else {
      auto it = wide_cache_.find(ids_buf_);
      if (it != wide_cache_.end()) {
        if (stats_ != nullptr) ++stats_->cache_hits;
        return it->second;
      }
    }
    if (stats_ != nullptr) ++stats_->states;
    if (++states_ > max_states_) {
      exhausted_ = true;
      return Ops::Zero();
    }

    // EvalComponents recurses into Eval, which reuses ids_buf_ — recompute
    // nothing from it afterwards (packed / the map key copy are taken now).
    std::vector<uint32_t> wide_key;
    if (!packable) wide_key = ids_buf_;
    Num result = EvalComponents(clauses);
    if (packable) {
      packed_cache_.emplace(packed, result);
    } else {
      wide_cache_.emplace(std::move(wide_key), result);
    }
    return result;
  }

  bool exhausted() const { return exhausted_; }

 private:
  Num EvalComponents(const Clauses& clauses) {
    // Split clauses into variable-connected components: independent parts
    // combine as 1 - Π(1 - p_i).
    std::vector<Clauses> groups = SplitVariableComponents(clauses);
    if (groups.size() > 1) {
      if (stats_ != nullptr) ++stats_->component_splits;
      IndependentUnionAccumulator<Num> any;
      for (Clauses& group : groups) {
        any.Add(Eval(std::move(group)));
        if (exhausted_) return Ops::Zero();
      }
      return any.Total();
    }

    // Branch on the variable of minimal rank occurring in the formula.
    uint32_t branch = 0;
    uint32_t best_rank = UINT32_MAX;
    for (const auto& c : clauses) {
      for (uint32_t v : c) {
        if (rank_[v] < best_rank) {
          best_rank = rank_[v];
          branch = v;
        }
      }
    }
    Clauses pos;
    Clauses neg;
    pos.reserve(clauses.size());
    neg.reserve(clauses.size());
    for (const auto& c : clauses) {
      auto it = std::lower_bound(c.begin(), c.end(), branch);
      if (it != c.end() && *it == branch) {
        std::vector<uint32_t> shrunk;
        shrunk.reserve(c.size() - 1);
        shrunk.insert(shrunk.end(), c.begin(), it);
        shrunk.insert(shrunk.end(), it + 1, c.end());
        pos.push_back(std::move(shrunk));
      } else {
        pos.push_back(c);
        neg.push_back(c);
      }
    }
    const Num& p = probs_[branch];
    Num r1 = Ops::IsZero(p) ? Ops::Zero() : Eval(std::move(pos));
    if (exhausted_) return Ops::Zero();
    Num r0 = Ops::IsOne(p) ? Ops::Zero() : Eval(std::move(neg));
    if (exhausted_) return Ops::Zero();
    return p * r1 + Ops::Complement(p) * r0;
  }

  /// Packed-key geometry: up to 8 ids of one byte each (byte value id+1,
  /// so 0 marks an unused slot and length needs no separate tag).
  static constexpr size_t kPackWidth = 8;
  static constexpr uint32_t kPackBase = 256;

  const std::vector<Num>& probs_;
  std::vector<uint32_t> rank_;
  uint64_t max_states_;
  ShannonStats* stats_;
  uint64_t states_ = 0;
  bool exhausted_ = false;
  ClauseInterner interner_;
  std::vector<uint32_t> ids_buf_;
  std::unordered_map<uint64_t, Num> packed_cache_;
  std::unordered_map<std::vector<uint32_t>, Num, ClauseVecHash> wide_cache_;
};

}  // namespace

template <class Num>
Result<Num> DnfProbabilityShannonT(const MonotoneDnf& dnf,
                                   const std::vector<Num>& probs,
                                   const ShannonOptions& options,
                                   ShannonStats* stats) {
  PHOM_CHECK(probs.size() >= dnf.num_vars());
  std::vector<uint32_t> rank(dnf.num_vars());
  if (options.variable_order.empty()) {
    for (uint32_t i = 0; i < dnf.num_vars(); ++i) rank[i] = i;
  } else {
    std::fill(rank.begin(), rank.end(), UINT32_MAX);
    uint32_t r = 0;
    for (uint32_t v : options.variable_order) {
      PHOM_CHECK(v < dnf.num_vars());
      rank[v] = r++;
    }
    for (uint32_t v = 0; v < dnf.num_vars(); ++v) {
      PHOM_CHECK_MSG(rank[v] != UINT32_MAX,
                     "variable_order must cover all variables");
    }
  }
  ShannonEvaluator<Num> evaluator(probs, std::move(rank), options.max_states,
                                  stats);
  Num result = evaluator.Eval(dnf.clauses());
  if (evaluator.exhausted()) {
    return Status::ResourceExhausted("Shannon expansion exceeded max_states");
  }
  return result;
}

template Result<Rational> DnfProbabilityShannonT<Rational>(
    const MonotoneDnf&, const std::vector<Rational>&, const ShannonOptions&,
    ShannonStats*);
template Result<double> DnfProbabilityShannonT<double>(
    const MonotoneDnf&, const std::vector<double>&, const ShannonOptions&,
    ShannonStats*);
template Result<IntervalDouble> DnfProbabilityShannonT<IntervalDouble>(
    const MonotoneDnf&, const std::vector<IntervalDouble>&,
    const ShannonOptions&, ShannonStats*);

Result<Rational> DnfProbabilityBetaAcyclic(const MonotoneDnf& dnf,
                                           const std::vector<Rational>& probs,
                                           ShannonStats* stats) {
  ShannonOptions options;
  std::optional<std::vector<uint32_t>> order =
      dnf.ToHypergraph().BetaEliminationOrder();
  if (order.has_value()) options.variable_order = std::move(*order);
  return DnfProbabilityShannon(dnf, probs, options, stats);
}

}  // namespace phom
