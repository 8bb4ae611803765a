#include "perfbench/workloads.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "src/graph/digraph.h"

namespace perfbench {
namespace {

using phom::DiGraph;
using phom::LabelId;
using phom::ProbGraph;
using phom::Rational;

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// alone, never on the library's or the standard library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (modulo bias is irrelevant at these sizes).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  size_t Between(size_t lo, size_t hi) { return lo + Below(hi - lo + 1); }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Below(items.size())];
  }

 private:
  uint64_t state_;
};

/// An edge with vertex ids local to its component.
struct GenEdge {
  uint32_t src;
  uint32_t dst;
  LabelId label;
};

struct Component {
  size_t vertices = 0;
  std::vector<GenEdge> edges;
};

/// A 2WP: edge i joins vertices i and i+1 in a random direction. It is
/// proper (neither a 1WP nor a DWT) iff some vertex has in-degree 2, i.e. a
/// forward edge is directly followed by a backward one.
Component RandomTwoWayPath(Rng& rng, size_t edges,
                           const std::vector<LabelId>& labels) {
  for (;;) {
    std::vector<bool> forward(edges);
    for (size_t i = 0; i < edges; ++i) forward[i] = rng.Below(2) == 0;
    bool proper = false;
    for (size_t i = 1; i < edges; ++i) proper |= forward[i - 1] && !forward[i];
    if (!proper) continue;
    Component c{edges + 1, {}};
    for (uint32_t i = 0; i < edges; ++i) {
      const LabelId label = rng.Pick(labels);
      c.edges.push_back(forward[i] ? GenEdge{i, i + 1, label}
                                   : GenEdge{i + 1, i, label});
    }
    return c;
  }
}

/// Draws the tree structure (labels, orientations) of dwt-exact and
/// trees-interval, whose per-request work depends on it most: fixed, so
/// those workloads' seeds draw probabilities and request streams only.
constexpr uint64_t kStructureSeed = 20170514;

/// A comb: the spine 0 - 1 - 3 - 5 - ... with one leaf below each spine
/// vertex. Every instance tree has this shape, so tree size and depth never
/// vary with the seed. Proper (not a 2WP) from four vertices on: vertex 1 has
/// two children.
std::vector<uint32_t> CombParents(size_t vertices) {
  std::vector<uint32_t> parent(vertices, 0);
  for (uint32_t i = 2; i < vertices; ++i) parent[i] = i - 1 - (i % 2);
  return parent;
}

/// A DWT on the comb (edges point away from the root, vertex 0).
Component LabeledComb(Rng& rng, size_t vertices, const std::vector<LabelId>& labels) {
  const std::vector<uint32_t> parent = CombParents(vertices);
  Component c{vertices, {}};
  for (uint32_t i = 1; i < vertices; ++i) {
    c.edges.push_back({parent[i], i, rng.Pick(labels)});
  }
  return c;
}

/// A polytree: the comb with every edge oriented at random. Proper (neither
/// a DWT nor a 2WP) iff some vertex has in-degree 2 and some vertex has
/// three neighbours.
Component RandomPolytree(Rng& rng, size_t vertices, const std::vector<LabelId>& labels) {
  const std::vector<uint32_t> parent = CombParents(vertices);
  for (;;) {
    Component c{vertices, {}};
    std::vector<size_t> in_degree(vertices, 0);
    std::vector<size_t> degree(vertices, 0);
    for (uint32_t i = 1; i < vertices; ++i) {
      const bool down = rng.Below(2) == 0;
      const GenEdge e = down ? GenEdge{parent[i], i, rng.Pick(labels)}
                             : GenEdge{i, parent[i], rng.Pick(labels)};
      ++in_degree[e.dst];
      ++degree[e.src];
      ++degree[e.dst];
      c.edges.push_back(e);
    }
    const bool merge = *std::max_element(in_degree.begin(), in_degree.end()) >= 2;
    const bool branch = *std::max_element(degree.begin(), degree.end()) >= 3;
    if (merge && branch) return c;
  }
}

/// A 1WP with the given label sequence.
Component OneWayPath(const std::vector<LabelId>& labels) {
  Component c{labels.size() + 1, {}};
  for (uint32_t i = 0; i < labels.size(); ++i) {
    c.edges.push_back({i, i + 1, labels[i]});
  }
  return c;
}

bool UsesLabels(const Component& c, const std::vector<LabelId>& labels) {
  for (const LabelId l : labels) {
    if (std::none_of(c.edges.begin(), c.edges.end(),
                     [l](const GenEdge& e) { return e.label == l; })) {
      return false;
    }
  }
  return true;
}

/// Query text in the parser's atom syntax: "A(x0,x1), B(x2,x1)".
std::string QueryText(const Component& c, const phom::Alphabet& alphabet) {
  std::string text;
  for (const GenEdge& e : c.edges) {
    if (!text.empty()) text += ", ";
    text += alphabet.Name(e.label) + "(x" + std::to_string(e.src) + ",x" +
            std::to_string(e.dst) + ")";
  }
  return text;
}

/// Disjoint union of the components, each edge with probability k/den for a
/// uniform k in [1, den - 1].
ProbGraph Instance(const std::vector<Component>& parts, Rng& rng, int64_t den) {
  size_t vertices = 0;
  for (const Component& c : parts) vertices += c.vertices;
  DiGraph g(vertices);
  std::vector<Rational> probs;
  uint32_t offset = 0;
  for (const Component& c : parts) {
    for (const GenEdge& e : c.edges) {
      if (!g.AddEdge(offset + e.src, offset + e.dst, e.label).ok()) {
        throw std::logic_error("perfbench: generated a duplicate edge");
      }
      probs.emplace_back(static_cast<int64_t>(rng.Between(1, den - 1)), den);
    }
    offset += static_cast<uint32_t>(c.vertices);
  }
  return ProbGraph(std::move(g), std::move(probs));
}

std::vector<LabelId> Intern(phom::Alphabet* alphabet,
                            const std::vector<std::string>& names) {
  std::vector<LabelId> ids;
  for (const std::string& n : names) ids.push_back(alphabet->Intern(n));
  return ids;
}

/// Adds up to `count` distinct texts drawn from `make`, each as a pair on
/// instance 0.
template <typename Make>
void AddTexts(Workload* w, size_t count, Make make) {
  std::set<std::string> seen;
  for (size_t attempts = 0; w->texts.size() < count && attempts < 100 * count;
       ++attempts) {
    std::string text = QueryText(make(), w->alphabet);
    if (!seen.insert(text).second) continue;
    w->pairs.push_back({0, static_cast<uint32_t>(w->texts.size())});
    w->texts.push_back(std::move(text));
  }
}

/// A stream of `n` requests drawn uniformly from the pairs.
void UniformStream(Workload* w, Rng& rng, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    w->stream.push_back(static_cast<uint32_t>(rng.Below(w->pairs.size())));
  }
}

/// twp-double: Prop. 4.11 on 2WPs, double backend, warm context.
Workload TwpDouble(uint64_t seed) {
  Workload w;
  w.name = "twp-double";
  w.backend = phom::NumericBackend::kDouble;
  const std::vector<LabelId> ab = Intern(&w.alphabet, {"A", "B"});
  Rng rng(seed ^ 0x7477702d646f75ull);
  std::vector<Component> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(RandomTwoWayPath(rng, 64, ab));
  w.instances.push_back(Instance(parts, rng, 16));
  AddTexts(&w, 256, [&] {
    for (;;) {
      Component q = RandomTwoWayPath(rng, rng.Between(4, 7), ab);
      if (UsesLabels(q, ab)) return q;
    }
  });
  UniformStream(&w, rng, 4096);
  w.window = 8;
  w.warmup_requests = 1000;
  w.replay_requests = 2048;
  w.engines = {{"connected-on-2wp", 1.0, 1.0}};
  w.guarantee = phom::Guarantee::kEmpiricalDouble;
  return w;
}

/// dwt-exact: Prop. 4.10 on labeled DWTs, exact (BigInt/Rational) backend.
Workload DwtExact(uint64_t seed) {
  Workload w;
  w.name = "dwt-exact";
  w.backend = phom::NumericBackend::kExact;
  const std::vector<LabelId> ab = Intern(&w.alphabet, {"A", "B"});
  Rng rng(seed ^ 0x6477742d657861ull);
  Rng structure(kStructureSeed);
  std::vector<Component> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(LabeledComb(structure, 64, ab));
  w.instances.push_back(Instance(parts, rng, 16));
  // Every 1WP of 3-5 edges that uses both labels: 50 texts.
  AddTexts(&w, 64, [&] {
    for (;;) {
      std::vector<LabelId> labels(rng.Between(3, 5));
      for (LabelId& l : labels) l = rng.Pick(ab);
      Component q = OneWayPath(labels);
      if (UsesLabels(q, ab)) return q;
    }
  });
  UniformStream(&w, rng, 4096);
  w.window = 6;
  w.warmup_requests = 96;
  w.replay_requests = 128;
  w.engines = {{"path-on-dwt", 1.0, 1.0}};
  w.guarantee = phom::Guarantee::kExact;
  return w;
}

/// trees-interval: Props. 5.4 (automata + d-DNNF) and 3.6 (unlabeled DWT
/// instance), interval backend. The polytree part and the DWT part carry one
/// label each, so every query — one label — is effectively unlabeled and
/// lands in exactly one of the two cells.
Workload TreesInterval(uint64_t seed) {
  Workload w;
  w.name = "trees-interval";
  w.backend = phom::NumericBackend::kIntervalDouble;
  const std::vector<LabelId> p = Intern(&w.alphabet, {"P"});
  const std::vector<LabelId> d = Intern(&w.alphabet, {"D"});
  Rng rng(seed ^ 0x74726565732d69ull);
  Rng structure(kStructureSeed);
  std::vector<Component> parts;
  for (int i = 0; i < 8; ++i) parts.push_back(RandomPolytree(structure, 16, p));
  for (int i = 0; i < 4; ++i) parts.push_back(LabeledComb(structure, 48, d));
  // Non-dyadic probabilities: the interval answers are true enclosures, not
  // points, and the Rational-to-interval conversion does real work.
  w.instances.push_back(Instance(parts, rng, 10));
  // Every DWT query of 4-6 vertices (vertex i below an earlier vertex: 150
  // shapes) on each label. Three requests in four go to the polytree label.
  std::vector<uint32_t> on_p, on_d;
  for (const LabelId label : {p[0], d[0]}) {
    for (size_t vertices = 4; vertices <= 6; ++vertices) {
      std::vector<uint32_t> parent(vertices, 0);
      for (;;) {
        Component q{vertices, {}};
        for (uint32_t i = 1; i < vertices; ++i) q.edges.push_back({parent[i], i, label});
        (label == p[0] ? on_p : on_d).push_back(static_cast<uint32_t>(w.pairs.size()));
        w.pairs.push_back({0, static_cast<uint32_t>(w.texts.size())});
        w.texts.push_back(QueryText(q, w.alphabet));
        // Next parent array in mixed-radix order; stop after the last.
        size_t i = 1;
        while (i < vertices && ++parent[i] == i) parent[i++] = 0;
        if (i == vertices) break;
      }
    }
  }
  for (size_t k = 0; k < 4096; ++k) {
    w.stream.push_back(k % 4 == 0 ? rng.Pick(on_d) : rng.Pick(on_p));
  }
  w.window = 8;
  w.warmup_requests = 384;
  w.replay_requests = 1024;
  w.engines = {{"unlabeled-polytree", 0.7, 0.8},
               {"unlabeled-dwt-instance", 0.2, 0.3}};
  w.guarantee = phom::Guarantee::kIntervalEnclosure;
  return w;
}

/// tenants-double: a ShardedServer over many small labeled tenants whose
/// distinct contexts far outnumber the shared LRU, double backend. Each
/// tenant draws its own pair of the four labels, used by both of its
/// components and by every query sent to it, so each tenant has one context.
Workload TenantsDouble(uint64_t seed) {
  Workload w;
  w.name = "tenants-double";
  w.front = Front::kSharded;
  w.backend = phom::NumericBackend::kDouble;
  const std::vector<LabelId> abcd = Intern(&w.alphabet, {"A", "B", "C", "D"});
  Rng rng(seed ^ 0x74656e616e7473ull);
  constexpr size_t kTenants = 256;
  std::vector<std::vector<LabelId>> tenant_labels;
  for (size_t t = 0; t < kTenants; ++t) {
    const LabelId a = rng.Pick(abcd);
    LabelId b = a;
    while (b == a) b = rng.Pick(abcd);
    tenant_labels.push_back({a, b});
    w.instances.push_back(Instance({RandomTwoWayPath(rng, 32, tenant_labels[t]),
                                    LabeledComb(rng, 32, tenant_labels[t])},
                                   rng, 16));
  }
  std::map<std::string, uint32_t> text_ids;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> pair_ids;
  for (size_t k = 0; k < 4096; ++k) {
    const uint32_t shard = static_cast<uint32_t>(rng.Below(kTenants));
    const std::vector<LabelId>& labels = tenant_labels[shard];
    Component q;
    do {
      std::vector<LabelId> path(rng.Between(2, 4));
      for (LabelId& l : path) l = rng.Pick(labels);
      q = OneWayPath(path);
    } while (!UsesLabels(q, labels));
    std::string text = QueryText(q, w.alphabet);
    auto [tit, new_text] = text_ids.emplace(text, w.texts.size());
    if (new_text) w.texts.push_back(std::move(text));
    auto [pit, new_pair] = pair_ids.emplace(std::make_pair(shard, tit->second),
                                            w.pairs.size());
    if (new_pair) w.pairs.push_back({shard, tit->second});
    w.stream.push_back(pit->second);
  }
  w.window = 8;
  w.warmup_requests = 1000;
  w.replay_requests = 4096;
  w.engines = {{"per-component", 0.0, 1.0}};
  w.guarantee = phom::Guarantee::kEmpiricalDouble;
  w.min_context_miss_ratio = 0.5;
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "twp-double", "dwt-exact", "trees-interval", "tenants-double"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "twp-double") return TwpDouble(seed);
  if (name == "dwt-exact") return DwtExact(seed);
  if (name == "trees-interval") return TreesInterval(seed);
  if (name == "tenants-double") return TenantsDouble(seed);
  return std::nullopt;
}

}  // namespace perfbench
