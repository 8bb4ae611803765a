#pragma once

#include <memory>
#include <vector>

#include "src/core/case.h"
#include "src/core/solver.h"
#include "src/graph/ucq.h"
#include "src/lifted/plan.h"

/// \file lift.h
/// The Dalvi–Suciu lifted-inference compiler for UCQs (plan.h describes the
/// operator algebra). PrepareUcq is the UCQ twin of PrepareProblem: it
/// normalizes the union, keeps the single-CQ path BIT-IDENTICAL (a union
/// that normalizes to one disjunct is prepared exactly as a plain CQ, with
/// no lifting machinery touched), and compiles everything else into a
/// UcqEvalPlan whose leaves are ordinary prepared problems:
///
///   1. disjuncts are grouped by label overlap; label-disjoint groups have
///      edge-disjoint lineages, hence INDEPENDENT events → kIndependentUnion;
///   2. an entangled group is expanded by inclusion–exclusion over its
///      non-empty disjunct subsets (capped at kMaxEntangledDisjuncts), the
///      conjunction of Boolean CQs being the disjoint union of their pattern
///      graphs — degenerating to kExclusiveUnion when every cross term folds
///      to 0;
///   3. each subset conjunction is core-reduced (shatter.h), folded to a
///      constant when it is an easy fact against the instance (no hom → 0,
///      hom into the certain subgraph → 1), and split into label-disjoint
///      parts → kIndependentJoin over engine-solved leaves.
///
/// The plan is SAFE ("lifted") when every leaf lands in a PTIME cell of the
/// dichotomy; otherwise the SAME plan stays exact but carries a typed
/// not-liftable verdict and its hard leaves run the exponential fallback
/// engines — that IS the documented fallback route, not a separate code
/// path. Units are solved through SolvePrepared, so every unit honors
/// forced engines (force_engine/force_algorithm pass through, with the
/// "lifted-ucq" force itself stripped to avoid recursion), numeric
/// backends, cancellation, and stats exactly like a single-CQ solve.
///
/// The lifted engine is componentwise (engine.h): its units are the parts
/// that SolvePreparedComponent solves and CombinePreparedComponents merges,
/// serially and in the serve executor's per-unit fan-out alike.

namespace phom {
class Engine;
}

namespace phom::lifted {

/// Cap on the disjuncts of one entangled (label-overlapping) group: the
/// inclusion–exclusion expansion enumerates 2^k − 1 subset conjunctions.
/// A group beyond the cap yields an unsolvable plan (root < 0) whose solve
/// reports NotSupported — a resource guard in the spirit of
/// FallbackOptions' world-count limits.
inline constexpr size_t kMaxEntangledDisjuncts = 12;

/// Prepares a UCQ against an instance. The result either carries an
/// immediate answer (trivial shells), is a plain single-CQ PreparedProblem
/// (union normalized to one disjunct — bit-identical to PrepareProblem),
/// or has `ucq` set with the compiled plan (then analysis.algorithm is
/// Algorithm::kLiftedUcq and auto dispatch routes to the lifted engine).
PreparedProblem PrepareUcq(const Ucq& ucq, const ProbGraph& instance);

/// PrepareUcq with the instance-side work delegated to `provider` — the
/// amortization hook used by EvalSession. The union context is built for
/// the UNION of the disjuncts' label sets; each leaf additionally gets its
/// own label-restricted context through the same provider (cache hits for
/// repeated label sets).
PreparedProblem PrepareUcqWithProvider(const Ucq& ucq,
                                       size_t instance_num_vertices,
                                       const InstanceContextProvider& provider);

/// Forward evaluation of the plan over the unit values (aligned with
/// plan.units) in one backend, Num = Rational, double or IntervalDouble:
/// the unit fold of CombinePreparedComponents. NotSupported with the
/// compiler's reason when the plan did not compile (root < 0).
template <class Num>
Result<Num> EvaluatePlan(const UcqEvalPlan& plan,
                         const std::vector<Num>& units);

/// The "lifted-ucq" engine registered by RegisterDefaultEngines: a
/// componentwise engine whose parts are the plan units, the fan-out
/// granularity the serve layer parallelizes over.
std::unique_ptr<Engine> MakeLiftedUcqEngine();

}  // namespace phom::lifted
