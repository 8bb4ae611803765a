#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/compiled.h"
#include "src/graph/classify.h"
#include "src/graph/graded.h"
#include "src/graph/prob_graph.h"
#include "src/util/rational.h"

/// \file case.h
/// The dichotomy of Tables 1–3 as code: given a PHom input, decide whether it
/// falls in a PTIME cell (and which algorithm/proposition applies) or in a
/// #P-hard cell (and which hardness proposition witnesses it).
///
/// Preparation steps applied before classification (all sound for PHom):
///  1. isolated query vertices are dropped (possible worlds keep all instance
///     vertices, so they only require a non-empty instance);
///  2. the instance is marginalized to the labels used by the query;
///  3. in the (effective) unlabeled setting, a ⊔DWT query is replaced by the
///     equivalent one-way path →^height (Prop. 5.5), and any query on a ⊔DWT
///     instance is replaced by →^(difference of levels) via its level mapping
///     or answered 0 when not graded (Prop. 3.6).
///
/// Step 2 and everything derived from the restricted instance (component
/// split, per-component classification) depend only on the instance and the
/// query's LABEL SET, not on the query's shape. That work is factored into
/// an immutable, shareable InstanceContext so an EvalSession can pay for it
/// once per label set and amortize it across a batch of queries.

namespace phom {

enum class Algorithm {
  kTrivial = 0,            ///< answered during preparation
  kConnectedOn2wp,         ///< Prop. 4.11 (X-property + β-acyclic interval DNF)
  kPathOnDwt,              ///< Prop. 4.10 (tree-KMP matches + run-length DP)
  kUnlabeledDwtInstance,   ///< Prop. 3.6 (level-mapping collapse, then DWT DP)
  kUnlabeledPolytree,      ///< Props. 5.4/5.5 (tree automaton run)
  kPerComponent,           ///< mixed instance: per-component algorithms + Lemma 3.7
  kFallback,               ///< #P-hard cell: exact exponential solver
  kLiftedUcq,              ///< UCQ input: Dalvi–Suciu lifted plan (src/lifted/)
};

const char* ToString(Algorithm a);

struct CaseAnalysis {
  /// |σ_effective| <= 1 after restricting to the query's labels.
  bool effective_unlabeled = false;
  /// The query was replaced by an equivalent / world-equivalent 1WP.
  bool query_collapsed = false;
  /// Length of the collapsed path (valid if query_collapsed).
  int64_t collapsed_length = 0;

  Classification query_class;     ///< of the prepared query
  Classification instance_class;  ///< of the restricted instance

  /// Verdict of Tables 1–3 for this cell (union classes included).
  bool tractable = false;
  Algorithm algorithm = Algorithm::kFallback;
  /// The proposition(s) justifying the verdict, e.g. "Prop. 4.11".
  std::string proposition;
  /// Human-readable cell, e.g. "PHomL(⊔1WP, 1WP)".
  std::string cell;
};

/// The query-independent half of problem preparation: the instance restricted
/// to one label set, split into components, each component classified.
/// Shared (and cached) via shared_ptr.
///
/// Eager (BuildInstanceContext, one pass): `components` come straight from
/// the unrestricted instance under the label filter, each is classified once,
/// and `instance_class` is derived from `component_classes` (ClassifyUnion)
/// without classifying the whole graph.
///
/// Lazy, built by the first solve that reads them (on the worker that runs
/// it, never in the session's Prepare):
///  * the label-restricted whole instance, reassembled from `components` by
///    MergeComponents on the first instance() call. Only whole-instance
///    engines (world enumeration, match lineage, Monte Carlo, the
///    unlabeled-DWT kernel) and the lifted UCQ planner read it;
///    componentwise solves never build it.
///  * the compiled kernel inputs (compiled.h) of every component and of the
///    whole instance: polytree encoding, downward forest and per-backend
///    probabilities, each behind its own once-flag.
///
/// Thread safety: the eager fields are immutable once built, and every lazy
/// part is built exactly once under std::call_once, so one const context may
/// be read from any number of threads; workers that fan out over components
/// compile different components in parallel.
struct InstanceContext {
  /// Classifies each of `split` (the instance's components).
  explicit InstanceContext(std::vector<ComponentView> split);

  Classification instance_class;  ///< of the restricted instance
  std::vector<ComponentView> components;
  std::vector<Classification> component_classes;  ///< aligned with components

  /// The label-restricted instance (built on first use).
  const ProbGraph& instance() const;
  /// Its number of uncertain edges, summed over `components`.
  size_t NumUncertainEdges() const;

  /// Component i's compiled kernel inputs.
  const CompiledComponent& compiled(size_t i) const { return *compiled_[i]; }
  /// instance()'s, for the kernels that read the whole instance.
  const CompiledComponent& compiled_instance() const;

 private:
  mutable std::once_flag instance_once_;
  mutable ProbGraph instance_;
  /// Made with instance_, so a context that never reads the whole instance
  /// does not carry it.
  mutable std::unique_ptr<CompiledComponent> instance_compiled_;
  /// One per component; optional only because a CompiledComponent cannot be
  /// moved into a vector.
  std::vector<std::optional<CompiledComponent>> compiled_;
};

/// Builds the context for `labels` (the query's used labels, sorted).
std::shared_ptr<const InstanceContext> BuildInstanceContext(
    const ProbGraph& instance, const std::vector<LabelId>& labels);

namespace lifted {
struct PreparedUcq;  // src/lifted/plan.h
}  // namespace lifted

struct PreparedProblem {
  DiGraph query;       ///< simplified (and possibly collapsed) query
  /// Query-independent preparation of the instance (restriction, component
  /// split, classification); null only for the trivial shells where
  /// `immediate` is set before the instance is touched.
  std::shared_ptr<const InstanceContext> context;
  /// Set when preparation alone decides the answer (trivial cases and the
  /// non-graded-query-on-forest case of Prop. 3.6).
  std::optional<Rational> immediate;
  CaseAnalysis analysis;
  /// OneWayPathLabels(query) when analysis.query_class.is_1wp, else empty:
  /// the pattern of the Prop. 4.10 DWT kernels.
  std::vector<LabelId> query_path_labels = {};
  /// Non-null only for UCQ inputs with >= 2 normalized disjuncts (built by
  /// lifted::PrepareUcq; a UCQ that normalizes to one disjunct takes the
  /// plain single-CQ path above, bit-identically). When set, `query` holds
  /// the first disjunct and `context` the union-label context — enough for
  /// the generic plumbing — while the lifted plan drives the actual solve.
  std::shared_ptr<const lifted::PreparedUcq> ucq = nullptr;

  /// The label-restricted instance (empty graph when context is null).
  /// Builds the context's lazy instance on first use.
  const ProbGraph& instance() const;
};

PreparedProblem PrepareProblem(const DiGraph& query, const ProbGraph& instance);

/// Maps a label set to a (possibly cached) InstanceContext. Called at most
/// once per preparation, and only after the trivial shells are ruled out.
using InstanceContextProvider =
    std::function<std::shared_ptr<const InstanceContext>(
        const std::vector<LabelId>&)>;

/// PrepareProblem with the instance-side work delegated to `provider` —
/// the amortization hook used by EvalSession. `instance_num_vertices` is the
/// vertex count of the (unrestricted) instance, needed for the trivial
/// shells that short-circuit before any context is built.
PreparedProblem PrepareProblemWithProvider(
    const DiGraph& query, size_t instance_num_vertices,
    const InstanceContextProvider& provider);

/// Classification only (PrepareProblem's analysis).
CaseAnalysis AnalyzeCase(const DiGraph& query, const ProbGraph& instance);

/// Removes vertices with no incident edges (keeps edge order).
DiGraph DropIsolatedVertices(const DiGraph& g);

/// Row/column label of a graph in the tables: 1WP/2WP/DWT/PT/Connected for
/// connected graphs, ⊔1WP/⊔2WP/⊔DWT/⊔PT/All otherwise.
std::string TableClassLabel(const Classification& c);

}  // namespace phom
