#include "src/graph/ucq.h"

#include <algorithm>

#include "src/hom/backtrack.h"
#include "src/util/fnv.h"

namespace phom {

std::vector<LabelId> Ucq::UsedLabels() const {
  std::vector<LabelId> out;
  for (const DiGraph& d : disjuncts) {
    std::vector<LabelId> labels = d.UsedLabels();
    out.insert(out.end(), labels.begin(), labels.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint64_t> CanonicalDisjunctKey(const DiGraph& g) {
  std::vector<uint64_t> key;
  key.reserve(2 + g.num_edges());
  key.push_back(g.num_edges());
  key.push_back(g.num_vertices());
  std::vector<uint64_t> edges;
  edges.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    edges.push_back((uint64_t{e.src} << 42) | (uint64_t{e.dst} << 20) |
                    uint64_t{e.label});
  }
  // Vertex ids are construction-order artifacts, but sorting the packed
  // triples at least makes the key independent of edge insertion order.
  std::sort(edges.begin(), edges.end());
  key.insert(key.end(), edges.begin(), edges.end());
  return key;
}

Ucq NormalizeUcq(const Ucq& ucq) {
  std::vector<std::pair<std::vector<uint64_t>, const DiGraph*>> keyed;
  keyed.reserve(ucq.disjuncts.size());
  for (const DiGraph& d : ucq.disjuncts) {
    keyed.emplace_back(CanonicalDisjunctKey(d), &d);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Syntactic dedupe: identical canonical keys with isomorphic-by-identity
  // encodings collapse to the first copy.
  keyed.erase(std::unique(keyed.begin(), keyed.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              keyed.end());

  // Semantic subsumption: a homomorphism Q_i → Q_j composes with any match
  // of Q_j, so Q_j ⟹ Q_i and Q_j contributes nothing to the union. Check
  // every ordered pair; on mutual subsumption (logical equivalence) the
  // canonically-earlier disjunct survives. A hom test that errors out
  // (backtracking budget) keeps both disjuncts — dropping needs proof.
  const size_t n = keyed.size();
  std::vector<bool> dropped(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (dropped[i]) continue;
    for (size_t j = 0; j < n; ++j) {
      if (i == j || dropped[j]) continue;
      Result<bool> maps = HasHomomorphism(*keyed[i].second, *keyed[j].second);
      if (!maps.ok() || !*maps) continue;
      // Q_j is subsumed by Q_i — unless they are equivalent and i comes
      // later, in which case i is the one that falls (to j's earlier copy).
      if (j < i) {
        Result<bool> back =
            HasHomomorphism(*keyed[j].second, *keyed[i].second);
        if (back.ok() && *back) {
          dropped[i] = true;
          break;
        }
      }
      dropped[j] = true;
    }
  }

  Ucq out;
  for (size_t i = 0; i < n; ++i) {
    if (!dropped[i]) out.disjuncts.push_back(*keyed[i].second);
  }
  return out;
}

uint64_t UcqFingerprint(const Ucq& ucq) {
  uint64_t h = kFnvOffsetBasis;
  h = FnvHashU64(h, ucq.disjuncts.size());
  for (const DiGraph& d : ucq.disjuncts) {
    for (uint64_t v : CanonicalDisjunctKey(d)) h = FnvHashU64(h, v);
    h = FnvHashU64(h, 0x9e3779b97f4a7c15ULL);  // disjunct separator
  }
  return h;
}

}  // namespace phom
