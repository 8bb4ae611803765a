#include "src/hom/arc_consistency.h"

#include <algorithm>
#include <utility>

#include "src/util/status.h"

namespace phom {

XPropertyHomResult XPropertyHomomorphism(
    const DiGraph& query, const DiGraph& instance,
    const std::vector<VertexId>& order,
    const std::vector<VertexId>& initial_domain) {
  XPropertyHomResult out;
  size_t nq = query.num_vertices();
  size_t ni = instance.num_vertices();
  if (nq == 0) {
    out.has_hom = true;
    return out;
  }
  if (ni == 0) return out;

  // Domains as a flat nq × ni membership bitmap.
  std::vector<uint8_t> domain(nq * ni, initial_domain.empty() ? 1 : 0);
  for (size_t u = 0; u < nq; ++u) {
    for (VertexId a : initial_domain) domain[u * ni + a] = 1;
  }

  // AC-3 over the directed constraints given by query edges. For a query
  // edge u -R-> v we must revise both endpoints: a ∈ D(u) needs some
  // b ∈ D(v) with a -R-> b, and b ∈ D(v) needs some a ∈ D(u) with a -R-> b.
  // The worklist is a FIFO of (edge << 1) | revise_source? entries.
  std::vector<uint32_t> work;
  size_t work_head = 0;
  auto push_work = [&](EdgeId e, bool revise_source) {
    work.push_back((static_cast<uint32_t>(e) << 1) |
                   (revise_source ? 1u : 0u));
  };
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    push_work(e, true);
    push_work(e, false);
  }

  auto enqueue_neighbors = [&](VertexId u) {
    for (EdgeId e : query.OutEdges(u)) push_work(e, false);
    for (EdgeId e : query.InEdges(u)) push_work(e, true);
  };

  while (work_head != work.size()) {
    const uint32_t item = work[work_head++];
    const EdgeId e = static_cast<EdgeId>(item >> 1);
    const bool revise_source = (item & 1u) != 0;
    const Edge& qe = query.edge(e);
    VertexId revised = revise_source ? qe.src : qe.dst;
    VertexId other = revise_source ? qe.dst : qe.src;
    uint8_t* revised_row = domain.data() + static_cast<size_t>(revised) * ni;
    const uint8_t* other_row = domain.data() + static_cast<size_t>(other) * ni;
    bool changed = false;
    for (VertexId a = 0; a < ni; ++a) {
      if (!revised_row[a]) continue;
      bool supported = false;
      if (revise_source) {
        for (EdgeId ie : instance.OutEdges(a)) {
          const Edge& h = instance.edge(ie);
          if (h.label == qe.label && other_row[h.dst]) {
            supported = true;
            break;
          }
        }
      } else {
        for (EdgeId ie : instance.InEdges(a)) {
          const Edge& h = instance.edge(ie);
          if (h.label == qe.label && other_row[h.src]) {
            supported = true;
            break;
          }
        }
      }
      if (!supported) {
        revised_row[a] = 0;
        changed = true;
      }
    }
    if (changed) {
      bool empty = true;
      for (VertexId a = 0; a < ni && empty; ++a) empty = !revised_row[a];
      if (empty) return out;  // no homomorphism
      enqueue_neighbors(revised);
    }
  }

  // Min-closed constraints: the per-vertex minima (w.r.t. the X-property
  // order) of arc-consistent domains form a homomorphism.
  std::vector<uint32_t> pos(ni, UINT32_MAX);
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  out.witness.assign(nq, 0);
  for (VertexId u = 0; u < nq; ++u) {
    const uint8_t* row = domain.data() + static_cast<size_t>(u) * ni;
    uint32_t best_pos = UINT32_MAX;
    VertexId best = 0;
    bool any = false;
    for (VertexId a = 0; a < ni; ++a) {
      if (!row[a]) continue;
      PHOM_CHECK_MSG(pos[a] != UINT32_MAX,
                     "domain vertex missing from X-property order");
      if (!any || pos[a] < best_pos) {
        any = true;
        best_pos = pos[a];
        best = a;
      }
    }
    PHOM_CHECK(any);
    out.witness[u] = best;
  }
  // Verify the witness; failure would mean the instance violates the
  // X-property precondition.
  for (const Edge& qe : query.edges()) {
    PHOM_CHECK_MSG(
        instance.HasEdge(out.witness[qe.src], out.witness[qe.dst], qe.label),
        "X-property witness invalid: instance lacks the X-property w.r.t. "
        "the provided order");
  }
  out.has_hom = true;
  return out;
}

std::vector<uint32_t> XPropertyMinimalWindowEnds(
    const DiGraph& query, const DiGraph& instance,
    const std::vector<VertexId>& order) {
  const size_t nq = query.num_vertices();
  const uint32_t n = static_cast<uint32_t>(order.size());
  std::vector<uint32_t> pos(instance.num_vertices(), UINT32_MAX);
  for (uint32_t i = 0; i < n; ++i) pos[order[i]] = i;

  // D(u) as a bitmap over ORDER POSITIONS (row u of nq × n), with sizes.
  // Deleted (u, p) pairs wait on `dead` until their loss of support has
  // been propagated (each pair is deleted at most once, so one reservation
  // covers the sweep); `wiped` records that some domain emptied.
  std::vector<uint8_t> domain(nq * n, 1);
  auto in = [&](VertexId u, uint32_t p) -> uint8_t& {
    return domain[static_cast<size_t>(u) * n + p];
  };
  std::vector<uint32_t> size(nq, n);
  std::vector<std::pair<VertexId, uint32_t>> dead;
  dead.reserve(nq * n);
  bool wiped = false;
  auto remove = [&](VertexId u, uint32_t p) {
    in(u, p) = 0;
    if (--size[u] == 0) wiped = true;
    dead.emplace_back(u, p);
  };
  // Does position p, as an image of query edge e's source (revise_source)
  // or destination, still have an e-edge into the other endpoint's domain?
  auto supported = [&](const Edge& qe, bool revise_source, uint32_t p) {
    const VertexId other = revise_source ? qe.dst : qe.src;
    const VertexId v = order[p];
    for (EdgeId ie :
         revise_source ? instance.OutEdges(v) : instance.InEdges(v)) {
      const Edge& h = instance.edge(ie);
      const uint32_t q = pos[revise_source ? h.dst : h.src];
      if (h.label == qe.label && q != UINT32_MAX && in(other, q)) return true;
    }
    return false;
  };
  // A deleted (u, p) can only cost support to the instance neighbours of
  // order[p] along the query edges at u: recheck exactly those values.
  auto propagate = [&] {
    while (!dead.empty() && !wiped) {
      const auto [u, p] = dead.back();
      dead.pop_back();
      const VertexId v = order[p];
      for (bool out : {true, false}) {  // u -R-> w, then w -R-> u
        for (EdgeId e : out ? query.OutEdges(u) : query.InEdges(u)) {
          const Edge& qe = query.edge(e);
          const VertexId w = out ? qe.dst : qe.src;
          for (EdgeId ie : out ? instance.OutEdges(v) : instance.InEdges(v)) {
            const Edge& h = instance.edge(ie);
            const uint32_t q = pos[out ? h.dst : h.src];
            if (h.label == qe.label && q != UINT32_MAX && in(w, q) &&
                !supported(qe, !out, q)) {
              remove(w, q);
            }
          }
        }
      }
    }
    return !wiped;
  };

  // Establish AC on the whole order: check every value once against every
  // constraint at its vertex; later losses of support arrive via `dead`.
  for (const Edge& qe : query.edges()) {
    for (bool revise_source : {true, false}) {
      const VertexId u = revise_source ? qe.src : qe.dst;
      for (uint32_t p = 0; p < n && !wiped; ++p) {
        if (in(u, p) && !supported(qe, revise_source, p)) {
          remove(u, p);
        }
      }
    }
  }

  std::vector<uint32_t> ends;
  ends.reserve(n);
  // lo[u] = min D(u); domains only shrink, so it only moves right.
  std::vector<uint32_t> lo(nq, 0);
  std::vector<VertexId> witness(nq);
  for (uint32_t a = 0; a < n && propagate(); ++a) {
    uint32_t b = a;
    for (VertexId u = 0; u < nq; ++u) {
      while (!in(u, lo[u])) ++lo[u];
      b = std::max(b, lo[u]);
      witness[u] = order[lo[u]];
    }
    for (const Edge& qe : query.edges()) {
      PHOM_CHECK_MSG(
          instance.HasEdge(witness[qe.src], witness[qe.dst], qe.label),
          "X-property witness invalid: instance lacks the X-property w.r.t. "
          "the provided order");
    }
    ends.push_back(b);
    for (VertexId u = 0; u < nq; ++u) {
      if (in(u, a)) remove(u, a);
    }
  }
  return ends;
}

bool HasXProperty(const DiGraph& instance,
                  const std::vector<VertexId>& order) {
  std::vector<uint32_t> pos(instance.num_vertices(), UINT32_MAX);
  for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const Edge& e1 : instance.edges()) {
    for (const Edge& e2 : instance.edges()) {
      if (e1.label != e2.label) continue;
      // e1 = n0 -> n3, e2 = n1 -> n2 with n0 < n1 and n2 < n3.
      VertexId n0 = e1.src, n3 = e1.dst, n1 = e2.src, n2 = e2.dst;
      if (pos[n0] < pos[n1] && pos[n2] < pos[n3]) {
        if (!instance.HasEdge(n0, n2, e1.label)) return false;
      }
    }
  }
  return true;
}

}  // namespace phom
