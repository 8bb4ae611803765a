// Connected queries on a two-way path instance (Prop. 4.11): a highway
// corridor of segments, each directed (one-way) and annotated with the
// probability that it is open today. Arbitrary connected patterns — e.g.
// "an eastbound stretch, then a westbound detour" — are evaluated in PTIME
// via one incremental arc-consistency fixpoint (the X-property minimal
// windows) plus the β-acyclic interval lineage DP.
//
// Build & run:  ./build/examples/road_corridor

#include <iostream>

#include "src/core/phom.h"

int main() {
  using namespace phom;
  Alphabet kinds;
  LabelId highway = kinds.Intern("highway");
  LabelId local = kinds.Intern("local");

  // A corridor of 300 segments; orientation alternates in blocks, roughly
  // 1 in 6 segments is a fragile "local" road with lower availability.
  Rng rng(42);
  std::vector<TwoWayStep> steps;
  bool direction = true;
  for (int i = 0; i < 300; ++i) {
    if (rng.Bernoulli(0.25)) direction = !direction;
    bool is_local = rng.UniformInt(0, 5) == 0;
    steps.push_back(TwoWayStep{is_local ? local : highway, direction});
  }
  DiGraph corridor_graph = MakeTwoWayPath(steps);
  std::vector<Rational> availability;
  for (const TwoWayStep& s : steps) {
    availability.push_back(s.label == local ? Rational(3, 4)
                                            : Rational(15, 16));
  }
  ProbGraph corridor(corridor_graph, availability);
  std::cout << "Corridor: " << corridor.num_edges() << " segments ("
            << TableClassLabel(Classify(corridor.graph())) << " instance)\n\n";

  Solver solver;
  auto ask = [&](const DiGraph& query, const std::string& name) {
    Result<SolveResult> r = solver.Solve(query, corridor);
    PHOM_CHECK_MSG(r.ok(), r.status().ToString());
    std::cout << name << "\n  cell " << r->analysis.cell << "  ["
              << r->analysis.proposition << "]  Pr = "
              << r->probability.ToDecimalString(6)
              << "  (" << r->stats.lineage_clauses << " minimal matches from "
              << r->stats.hom_tests << " arc-consistency fixpoint(s))\n";
  };

  // Pattern 1: four consecutive open highway segments, same direction.
  ask(MakeLabeledPath({highway, highway, highway, highway}),
      "4 consecutive same-direction highway segments");

  // Pattern 2: an eastbound segment directly against a westbound one (a
  // "meeting point"): -> <-.
  ask(MakeTwoWayPath({{highway, true}, {highway, false}}),
      "head-on meeting of two highway segments");

  // Pattern 3: local detour sandwiched between highway stretches.
  ask(MakeLabeledPath({highway, local, highway}),
      "highway-local-highway chain");

  // Pattern 4: a branching query (DWT shape) still fine on path instances.
  DiGraph branching(4);
  AddEdgeOrDie(&branching, 0, 1, highway);
  AddEdgeOrDie(&branching, 0, 2, highway);
  AddEdgeOrDie(&branching, 1, 3, local);
  ask(branching, "branching pattern (collapses onto the corridor)");
  return 0;
}
