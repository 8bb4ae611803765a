#pragma once

#include <vector>

#include "src/circuits/circuit.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file dnnf.h
/// d-DNNF circuits (Definition 5.3): negation normal form where
///  (i)  negation applies to input gates only (structural in Circuit),
///  (ii) AND gates are decomposable — inputs depend on disjoint variables,
///  (iii) OR gates are deterministic — inputs are mutually exclusive.
/// These properties make probability computation a single bottom-up pass:
/// AND ↦ product, OR ↦ sum (Darwiche).

namespace phom {

/// Probability of the function computed at `root` under independent variable
/// probabilities, in the numeric backend of `Num` (Rational or double).
/// Correct only for d-DNNF circuits (the provenance circuits built in
/// automata/provenance.h are d-DNNF by construction; use the validators
/// below in tests).
template <class Num>
Num DnnfProbabilityT(const Circuit& circuit, uint32_t root,
                     const std::vector<Num>& var_probs);

/// Exact-backend convenience (the historical entry point).
inline Rational DnnfProbability(const Circuit& circuit, uint32_t root,
                                const std::vector<Rational>& var_probs) {
  return DnnfProbabilityT<Rational>(circuit, root, var_probs);
}

/// Structural check of decomposability: the variable sets reachable from the
/// inputs of every AND gate below `root` are pairwise disjoint.
Status ValidateDecomposability(const Circuit& circuit, uint32_t root);

/// Exhaustive check of determinism (every OR gate below `root` has at most
/// one true input under every assignment). Exponential: requires
/// num_vars <= 20. Test helper.
Status ValidateDeterminismExhaustive(const Circuit& circuit, uint32_t root);

}  // namespace phom
