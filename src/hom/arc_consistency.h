#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/digraph.h"
#include "src/util/result.h"

/// \file arc_consistency.h
/// Polynomial-time homomorphism testing for instances with the X-property
/// (Definition 4.12; Gutjahr–Welzl–Woeginger / Gottlob–Koch–Schulz,
/// Theorem 4.13).
///
/// The X-property of a label R w.r.t. a total vertex order < says: whenever
/// n0 < n1, n2 < n3, and both n0 -R-> n3 and n1 -R-> n2 are edges, then
/// n0 -R-> n2 is an edge. Viewing each label relation (and its inverse) as a
/// binary constraint, this is exactly closure under coordinatewise minimum.
/// For min-closed constraint networks, establishing arc consistency is a
/// complete decision procedure: if no domain empties, assigning every query
/// vertex the minimum of its domain is a homomorphism.
///
/// The solver runs AC-3 in O(|G| · |H| · d) and then verifies the minimum
/// witness (a PHOM_CHECK — it cannot fail when the precondition holds).
/// Instances that are (sub)paths trivially have the X-property, which is how
/// Prop. 4.11 uses this machinery.
///
/// Minimal windows from one fixpoint. Prop. 4.11 needs, for every left end
/// a of the order, the least right end r(a) such that the query maps into
/// the window order[a .. r(a)]. Let D_a be the arc-consistent domains of the
/// suffix window order[a ..]. AC never removes a value used by a
/// homomorphism, so any h into [a .. b] has min D_a(u) <= h(u) <= b for
/// every u; and min-closure makes u ↦ min D_a(u) itself a homomorphism, one
/// that lies inside [a .. max_u min D_a(u)]. Hence r(a) = max_u min D_a(u),
/// and if some D_a(u) is empty no window starts at or after a. Moving from
/// a to a+1 only deletes position a from every domain, so
/// XPropertyMinimalWindowEnds establishes AC once on the whole order and
/// then, per left end, propagates just those deletions: the greatest
/// arc-consistent subdomain it reaches is the one a restart on [a+1 ..]
/// would compute.

namespace phom {

struct XPropertyHomResult {
  bool has_hom = false;
  /// A witness homomorphism (query vertex -> instance vertex); valid iff
  /// has_hom.
  std::vector<VertexId> witness;
};

/// Decides query ⇝ instance, where `order` lists instance vertices in a total
/// order w.r.t. which the instance has the X-property (caller's obligation;
/// see HasXProperty). `initial_domain` optionally restricts the instance
/// vertices usable as images (used to test subpaths of a 2WP); pass empty for
/// all vertices.
XPropertyHomResult XPropertyHomomorphism(
    const DiGraph& query, const DiGraph& instance,
    const std::vector<VertexId>& order,
    const std::vector<VertexId>& initial_domain = {});

/// Prop. 4.11's minimal-window sweep over an instance with the X-property
/// w.r.t. `order` (see the file comment): returns `ends` with ends[a] the
/// least b such that query ⇝ instance restricted to order[a .. b], for
/// a = 0, 1, ... up to the first left end that has no such window (none
/// after it does either, since ends is non-decreasing). Establishes one
/// arc-consistency fixpoint and verifies every minimum witness, so a
/// violated precondition trips a PHOM_CHECK instead of a wrong window.
std::vector<uint32_t> XPropertyMinimalWindowEnds(
    const DiGraph& query, const DiGraph& instance,
    const std::vector<VertexId>& order);

/// Checks Definition 4.12 directly in O(|E|² · labels) — test helper.
bool HasXProperty(const DiGraph& instance, const std::vector<VertexId>& order);

}  // namespace phom
