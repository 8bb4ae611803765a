#pragma once

#include <cstdint>
#include <vector>

#include "src/lineage/dnf.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file dnf_prob.h
/// Probability of a monotone DNF under independent variables (the Boolean
/// probability computation problem, Definition 4.2). Three engines:
///
///  1. Brute force over all 2^n valuations — the oracle for tests.
///  2. Inclusion–exclusion over clauses — a second, independent oracle.
///  3. Memoized Shannon expansion with subsumption canonicalization and
///     connected-component decomposition, conditioning variables along a
///     caller-supplied order. This is our realization of Theorem 4.9's
///     tractability for β-acyclic positive DNFs: on the lineage families
///     the paper's PTIME cases produce (interval clauses along a 2WP,
///     rootward path clauses in a DWT), conditioning along the path/tree
///     order collapses the residual formulas to polynomially many distinct
///     states, so the engine runs in polynomial time; on arbitrary DNFs it
///     remains exact but may be exponential (it is a DPLL model counter with
///     component caching).

namespace phom {

/// 2^n enumeration. PHOM_CHECKs num_vars <= 30.
Rational DnfProbabilityBruteForce(const MonotoneDnf& dnf,
                                  const std::vector<Rational>& probs);

/// Inclusion–exclusion over clause subsets. PHOM_CHECKs num_clauses <= 20
/// after subsumption removal.
Rational DnfProbabilityInclusionExclusion(const MonotoneDnf& dnf,
                                          const std::vector<Rational>& probs);

struct ShannonOptions {
  /// Variables are conditioned in this order (a permutation of a superset of
  /// the used variables). Empty: identity order. For β-acyclic lineages pass
  /// the natural elimination order (path order / bottom-up tree order).
  std::vector<uint32_t> variable_order;
  /// Abort with ResourceExhausted beyond this many distinct residuals.
  uint64_t max_states = 4'000'000;
};

struct ShannonStats {
  uint64_t states = 0;       ///< distinct residual formulas evaluated
  uint64_t cache_hits = 0;
  uint64_t component_splits = 0;
};

/// The memoized Shannon engine in the numeric backend of `Num` (exact
/// Rational or double; see util/numeric.h). The residual-formula state space
/// is identical for both backends — only the arithmetic combining cached
/// sub-results differs.
template <class Num>
Result<Num> DnfProbabilityShannonT(const MonotoneDnf& dnf,
                                   const std::vector<Num>& probs,
                                   const ShannonOptions& options = {},
                                   ShannonStats* stats = nullptr);

/// Exact-backend convenience (the historical entry point).
inline Result<Rational> DnfProbabilityShannon(
    const MonotoneDnf& dnf, const std::vector<Rational>& probs,
    const ShannonOptions& options = {}, ShannonStats* stats = nullptr) {
  return DnfProbabilityShannonT<Rational>(dnf, probs, options, stats);
}

/// Convenience: Shannon expansion along a β-elimination order of the clause
/// hypergraph when one exists (identity order otherwise).
Result<Rational> DnfProbabilityBetaAcyclic(const MonotoneDnf& dnf,
                                           const std::vector<Rational>& probs,
                                           ShannonStats* stats = nullptr);

}  // namespace phom
