#include "src/core/path_pattern.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "src/core/downward_forest.h"

namespace phom {

std::string PathPattern::ToString() const {
  std::ostringstream os;
  for (const PatternStep& s : steps) {
    os << (s.descendant ? "//" : "/") << "L" << s.label;
  }
  return os.str();
}

namespace {

/// Subset states are uint64_t bitmasks over positions 0..m.
constexpr size_t kMaxPatternSteps = 63;

/// What every entry point answers for a pattern SuffixRunDfa cannot hold.
Status CheckPatternSteps(const PathPattern& pattern) {
  if (pattern.steps.size() > kMaxPatternSteps) {
    return Status::Invalid("path patterns are limited to 63 steps");
  }
  return Status::OK();
}

/// NFA over pattern positions 0..m: position i means "steps 1..i matched".
/// Reading a present edge with label l from position i:
///   * advance to i+1 when steps[i].label == l;
///   * stay at i when steps[i].descendant (the edge is part of the gap).
/// Suffix-run semantics inject position 0 before every transition (a match
/// may start at any edge of the present run). Subsets are bitmasks
/// (patterns are limited to 63 steps), determinized lazily.
class SuffixRunDfa {
 public:
  SuffixRunDfa(const PathPattern& pattern, size_t max_states)
      : pattern_(pattern), max_states_(max_states) {
    PHOM_CHECK_MSG(pattern.steps.size() <= kMaxPatternSteps,
                   "patterns limited to 63 steps");
    empty_state_ = Intern(0);  // the reset state (no active run)
  }

  uint32_t empty_state() const { return empty_state_; }
  size_t num_states() const { return subsets_.size(); }
  bool exhausted() const { return exhausted_; }

  bool Accepting(uint32_t state) const {
    uint64_t final_bit = uint64_t{1} << pattern_.steps.size();
    return (subsets_[state] & final_bit) != 0;
  }

  /// δ(S ∪ {0}, label).
  uint32_t Step(uint32_t state, LabelId label) {
    auto it = transitions_.find({state, label});
    if (it != transitions_.end()) return it->second;
    uint64_t set = subsets_[state] | 1;  // inject position 0
    uint64_t next = 0;
    size_t m = pattern_.steps.size();
    for (size_t i = 0; i < m; ++i) {
      if (!(set >> i & 1)) continue;
      const PatternStep& step = pattern_.steps[i];
      if (step.label == label) next |= uint64_t{1} << (i + 1);
      if (step.descendant) next |= uint64_t{1} << i;
    }
    // The final position persists: once matched, the run stays accepting
    // (acceptance is checked at every vertex anyway; keeping the bit makes
    // Accepting monotone along runs, harmless and simpler).
    if (set >> m & 1) next |= uint64_t{1} << m;
    uint32_t id = Intern(next);
    transitions_.emplace(std::make_pair(state, label), id);
    return id;
  }

 private:
  uint32_t Intern(uint64_t subset) {
    auto it = ids_.find(subset);
    if (it != ids_.end()) return it->second;
    if (subsets_.size() >= max_states_) {
      exhausted_ = true;
      return empty_state_;
    }
    uint32_t id = static_cast<uint32_t>(subsets_.size());
    subsets_.push_back(subset);
    ids_.emplace(subset, id);
    return id;
  }

  const PathPattern& pattern_;
  size_t max_states_;
  bool exhausted_ = false;
  uint32_t empty_state_ = 0;
  std::vector<uint64_t> subsets_;
  std::unordered_map<uint64_t, uint32_t> ids_;
  std::map<std::pair<uint32_t, LabelId>, uint32_t> transitions_;
};

}  // namespace

Result<Rational> SolvePathPatternOnDwtForest(const PathPattern& pattern,
                                             const ProbGraph& instance,
                                             const PathPatternOptions& options,
                                             PathPatternStats* stats) {
  if (pattern.steps.empty()) return Rational::One();
  PHOM_RETURN_NOT_OK(CheckPatternSteps(pattern));
  const DiGraph& g = instance.graph();
  PHOM_ASSIGN_OR_RETURN(DownwardForest forest, BuildDownwardForest(g));
  SuffixRunDfa dfa(pattern, options.max_dfa_states);

  // Top-down: reachable DFA states per vertex (the reset state is always
  // reachable: the incoming edge may be absent).
  size_t n = g.num_vertices();
  std::vector<std::vector<uint32_t>> reach(n);
  for (VertexId v : forest.bfs_order) {
    if (forest.parent[v] < 0) reach[v] = {dfa.empty_state()};
    for (EdgeId e : g.OutEdges(v)) {
      VertexId c = g.edge(e).dst;
      std::vector<uint32_t> states;
      states.push_back(dfa.empty_state());
      for (uint32_t s : reach[v]) {
        states.push_back(dfa.Step(s, g.edge(e).label));
      }
      std::sort(states.begin(), states.end());
      states.erase(std::unique(states.begin(), states.end()), states.end());
      reach[c] = std::move(states);
    }
  }
  if (dfa.exhausted()) {
    return Status::ResourceExhausted(
        "pattern determinization exceeded max_dfa_states");
  }

  // Bottom-up DP: f[v][s] = Pr(no match in v's subtree | run state s at v).
  std::vector<std::unordered_map<uint32_t, Rational>> f(n);
  for (size_t idx = forest.bfs_order.size(); idx-- > 0;) {
    VertexId v = forest.bfs_order[idx];
    for (uint32_t s : reach[v]) {
      if (stats != nullptr) ++stats->table_cells;
      if (dfa.Accepting(s)) {
        f[v].emplace(s, Rational::Zero());
        continue;
      }
      Rational value = Rational::One();
      for (EdgeId e : g.OutEdges(v)) {
        VertexId c = g.edge(e).dst;
        const Rational& p = instance.prob(e);
        uint32_t s_present = dfa.Step(s, g.edge(e).label);
        value *= p * f[c].at(s_present) +
                 p.Complement() * f[c].at(dfa.empty_state());
      }
      f[v].emplace(s, std::move(value));
    }
    for (EdgeId e : g.OutEdges(v)) {
      f[g.edge(e).dst].clear();
    }
  }
  if (dfa.exhausted()) {
    return Status::ResourceExhausted(
        "pattern determinization exceeded max_dfa_states");
  }
  if (stats != nullptr) stats->dfa_states = dfa.num_states();

  Rational no_match = Rational::One();
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] < 0) no_match *= f[v].at(dfa.empty_state());
  }
  return no_match.Complement();
}

Result<bool> WorldHasPatternMatch(const PathPattern& pattern,
                                  const DiGraph& forest,
                                  const std::vector<bool>& kept) {
  if (pattern.steps.empty()) return true;
  PHOM_RETURN_NOT_OK(CheckPatternSteps(pattern));
  SuffixRunDfa dfa(pattern, 1u << 20);
  // DFS from every root over kept edges, carrying the run state.
  std::vector<std::pair<VertexId, uint32_t>> stack;
  for (VertexId v = 0; v < forest.num_vertices(); ++v) {
    if (forest.InDegree(v) == 0) stack.emplace_back(v, dfa.empty_state());
  }
  while (!stack.empty()) {
    auto [v, s] = stack.back();
    stack.pop_back();
    if (dfa.Accepting(s)) return true;
    for (EdgeId e : forest.OutEdges(v)) {
      VertexId c = forest.edge(e).dst;
      uint32_t next =
          kept[e] ? dfa.Step(s, forest.edge(e).label) : dfa.empty_state();
      stack.emplace_back(c, next);
    }
  }
  return false;
}

}  // namespace phom
