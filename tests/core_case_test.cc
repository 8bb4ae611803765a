#include "src/core/case.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/graph/builders.h"
#include "src/graph/classify.h"
#include "src/graph/generators.h"

namespace phom {
namespace {

ProbGraph Certain(const DiGraph& g) { return ProbGraph::Certain(g); }

/// A polytree that is neither a 2WP nor a DWT (Figure 4, right-ish).
DiGraph ProperPolytree() {
  DiGraph g(5);
  AddEdgeOrDie(&g, 0, 1, 0);
  AddEdgeOrDie(&g, 2, 1, 0);
  AddEdgeOrDie(&g, 1, 3, 0);
  AddEdgeOrDie(&g, 1, 4, 0);
  return g;
}

TEST(Case, DropIsolatedVertices) {
  DiGraph g(5);
  AddEdgeOrDie(&g, 1, 3, 7);
  DiGraph out = DropIsolatedVertices(g);
  EXPECT_EQ(out.num_vertices(), 2u);
  EXPECT_EQ(out.num_edges(), 1u);
  EXPECT_EQ(out.edge(0).label, 7u);
}

TEST(Case, TrivialCases) {
  EXPECT_EQ(*PrepareProblem(DiGraph(0), Certain(MakeOneWayPath(2))).immediate,
            Rational::One());
  EXPECT_EQ(*PrepareProblem(MakeOneWayPath(1), ProbGraph(0)).immediate,
            Rational::Zero());
  // Edgeless query on a non-empty instance: always true.
  EXPECT_EQ(*PrepareProblem(DiGraph(4), Certain(DiGraph(1))).immediate,
            Rational::One());
}

TEST(Case, EffectiveUnlabeledAfterRestriction) {
  // Instance uses labels {0,1}, query only {0}: effectively unlabeled.
  DiGraph q = MakeLabeledPath({0, 0});
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 1, Rational::Half());
  CaseAnalysis a = AnalyzeCase(q, h);
  EXPECT_TRUE(a.effective_unlabeled);
  EXPECT_TRUE(a.tractable);
}

// ---------------------------------------------------------------------------
// Table 2 (labeled, connected queries): representative two-label graphs.
// ---------------------------------------------------------------------------

DiGraph Labeled1wp() { return MakeLabeledPath({0, 1, 0}); }
DiGraph Labeled2wp() {
  return MakeTwoWayPath({{0, true}, {1, false}, {0, true}});
}
// Note the three children: a two-leaf star would also be a 2WP.
DiGraph LabeledDwt() { return MakeDownwardTree({0, 0, 0}, {0, 1, 0}); }
DiGraph LabeledPt() {
  DiGraph g(4);
  AddEdgeOrDie(&g, 0, 1, 0);
  AddEdgeOrDie(&g, 2, 1, 1);
  AddEdgeOrDie(&g, 1, 3, 0);
  return g;
}
DiGraph LabeledCycle() {
  DiGraph g(3);
  AddEdgeOrDie(&g, 0, 1, 0);
  AddEdgeOrDie(&g, 1, 2, 1);
  AddEdgeOrDie(&g, 2, 0, 0);
  return g;
}

TEST(Case, Table2LabeledConnected) {
  struct Cell {
    DiGraph query;
    DiGraph instance;
    bool tractable;
  };
  const std::vector<Cell> cells = {
      {Labeled1wp(), Labeled1wp(), true},
      {Labeled1wp(), Labeled2wp(), true},
      {Labeled1wp(), LabeledDwt(), true},   // Prop. 4.10
      {Labeled1wp(), LabeledPt(), false},   // Prop. 4.1
      {Labeled1wp(), LabeledCycle(), false},
      {Labeled2wp(), Labeled1wp(), true},   // Prop. 4.11
      {Labeled2wp(), Labeled2wp(), true},
      {Labeled2wp(), LabeledDwt(), false},  // Prop. 4.5
      {Labeled2wp(), LabeledPt(), false},
      {LabeledDwt(), Labeled2wp(), true},   // Prop. 4.11
      {LabeledDwt(), LabeledDwt(), false},  // Prop. 4.4
      {LabeledPt(), Labeled2wp(), true},
      {LabeledPt(), LabeledDwt(), false},
      {LabeledCycle(), Labeled2wp(), true},
      {LabeledCycle(), LabeledPt(), false},
  };
  for (size_t i = 0; i < cells.size(); ++i) {
    CaseAnalysis a = AnalyzeCase(cells[i].query, Certain(cells[i].instance));
    ASSERT_FALSE(a.effective_unlabeled) << "cell " << i;
    EXPECT_EQ(a.tractable, cells[i].tractable)
        << "cell " << i << ": " << a.cell << " / " << a.proposition;
  }
}

TEST(Case, LabeledDisconnectedQueryIsHard) {
  // Prop. 3.3: even ⊔1WP queries on 1WP instances.
  DiGraph q = DisjointUnion({MakeLabeledPath({0, 1}), MakeLabeledPath({1, 0})});
  CaseAnalysis a = AnalyzeCase(q, Certain(MakeLabeledPath({0, 1, 0, 1})));
  EXPECT_FALSE(a.effective_unlabeled);
  EXPECT_FALSE(a.tractable);
  EXPECT_EQ(a.algorithm, Algorithm::kFallback);
  EXPECT_NE(a.proposition.find("3.3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tables 1+3 (unlabeled).
// ---------------------------------------------------------------------------

TEST(Case, Table1UnlabeledDisconnectedQueries) {
  Rng rng(92);
  DiGraph u1wp = DisjointUnion({MakeOneWayPath(2), MakeOneWayPath(3)});
  DiGraph u2wp = DisjointUnion({MakeArrowPath("><"), MakeArrowPath("<>")});
  DiGraph udwt = DisjointUnion({MakeOutStar(2), MakeDownwardTree({0, 1})});

  DiGraph i_1wp = MakeOneWayPath(6);
  DiGraph i_2wp = MakeArrowPath("><><>");
  DiGraph i_dwt = MakeOutStar(4);
  DiGraph i_pt = ProperPolytree();
  DiGraph i_conn = RandomConnected(&rng, 6, 4, 1);

  // Row ⊔1WP: PTIME on 1WP..PT (collapses to a 1WP query), hard on Connected.
  EXPECT_TRUE(AnalyzeCase(u1wp, Certain(i_1wp)).tractable);
  EXPECT_TRUE(AnalyzeCase(u1wp, Certain(i_2wp)).tractable);
  EXPECT_TRUE(AnalyzeCase(u1wp, Certain(i_dwt)).tractable);
  EXPECT_TRUE(AnalyzeCase(u1wp, Certain(i_pt)).tractable);
  EXPECT_FALSE(AnalyzeCase(u1wp, Certain(i_conn)).tractable);

  // Row ⊔DWT: same (Prop. 5.5).
  EXPECT_TRUE(AnalyzeCase(udwt, Certain(i_pt)).tractable);
  EXPECT_FALSE(AnalyzeCase(udwt, Certain(i_conn)).tractable);

  // Row ⊔2WP: PTIME on 1WP and DWT columns (Prop. 3.6), hard on 2WP
  // (Prop. 3.4) and PT columns.
  EXPECT_TRUE(AnalyzeCase(u2wp, Certain(i_1wp)).tractable);
  EXPECT_TRUE(AnalyzeCase(u2wp, Certain(i_dwt)).tractable);
  EXPECT_FALSE(AnalyzeCase(u2wp, Certain(i_2wp)).tractable);
  EXPECT_FALSE(AnalyzeCase(u2wp, Certain(i_pt)).tractable);
}

TEST(Case, Table3UnlabeledConnectedQueries) {
  Rng rng(93);
  DiGraph q_1wp = MakeOneWayPath(3);
  DiGraph q_2wp = MakeArrowPath("><>");
  DiGraph q_dwt = MakeOutStar(3);
  DiGraph q_conn = RandomConnected(&rng, 5, 3, 1);

  DiGraph i_2wp = MakeArrowPath("><><");
  DiGraph i_dwt = MakeDownwardTree({0, 0, 1, 1});
  DiGraph i_pt = ProperPolytree();
  DiGraph i_conn = RandomConnected(&rng, 6, 4, 1);

  EXPECT_TRUE(AnalyzeCase(q_1wp, Certain(i_pt)).tractable);    // Prop. 5.4
  EXPECT_TRUE(AnalyzeCase(q_dwt, Certain(i_pt)).tractable);    // Prop. 5.5
  EXPECT_FALSE(AnalyzeCase(q_2wp, Certain(i_pt)).tractable);   // Prop. 5.6
  EXPECT_FALSE(AnalyzeCase(q_1wp, Certain(i_conn)).tractable); // Prop. 5.1
  EXPECT_TRUE(AnalyzeCase(q_2wp, Certain(i_2wp)).tractable);   // Prop. 4.11
  EXPECT_TRUE(AnalyzeCase(q_conn, Certain(i_2wp)).tractable);  // Prop. 4.11
  EXPECT_TRUE(AnalyzeCase(q_conn, Certain(i_dwt)).tractable);  // Prop. 3.6
  EXPECT_TRUE(AnalyzeCase(q_2wp, Certain(i_dwt)).tractable);   // Prop. 3.6
}

TEST(Case, MixedInstanceUnionsStayTractableForConnectedQueries) {
  // §3.3: the tables also hold for unions of the instance classes; the
  // per-component dispatch even covers mixing 2WP and DWT components.
  DiGraph q = MakeArrowPath("><");
  DiGraph mixed = DisjointUnion({MakeArrowPath("><>"), MakeOutStar(3)});
  CaseAnalysis a = AnalyzeCase(q, Certain(mixed));
  EXPECT_TRUE(a.effective_unlabeled);
  EXPECT_TRUE(a.tractable);
  EXPECT_EQ(a.algorithm, Algorithm::kPerComponent);
}

TEST(Case, CollapseReporting) {
  DiGraph q = DisjointUnion({MakeOutStar(2), MakeDownwardTree({0, 1, 2})});
  CaseAnalysis a = AnalyzeCase(q, Certain(MakeOneWayPath(5)));
  EXPECT_TRUE(a.query_collapsed);
  EXPECT_EQ(a.collapsed_length, 3);  // height of the deepest component
  EXPECT_TRUE(a.query_class.is_1wp);
}

/// Step 3 gives the collapsed →^m its class and label word by construction;
/// both must be what Classify and OneWayPathLabels read off the built path,
/// and the cell what the classified path names.
void ExpectCollapsedPathByConstruction(const PreparedProblem& p) {
  ASSERT_FALSE(p.immediate.has_value());
  ASSERT_TRUE(p.analysis.query_collapsed);
  EXPECT_EQ(p.query.num_edges(),
            static_cast<size_t>(p.analysis.collapsed_length));
  const Classification built = Classify(p.query);
  EXPECT_EQ(p.analysis.query_class, built);
  EXPECT_EQ(p.query_path_labels, OneWayPathLabels(p.query));
  EXPECT_EQ(p.analysis.cell, "PHom!L(" + TableClassLabel(built) + ", " +
                                 TableClassLabel(p.analysis.instance_class) +
                                 ")");
}

TEST(Case, CollapsedPathClassAndLabelsByConstruction) {
  Rng rng(30);
  // Prop. 5.5: unlabeled ⊔DWT queries on ⊔PT instances. A small positive
  // depth bias grows deep trees, so heights run from 1 past 64.
  std::set<int64_t> dwt_lengths;
  for (size_t n = 2; n <= 90; n += 4) {
    for (const double bias : {0.0, 0.05}) {
      const DiGraph query = RandomDisjointUnion(
          &rng, 1 + n % 3,
          [&](Rng* r) { return RandomDownwardTree(r, n, 1, bias); });
      const ProbGraph instance = AttachRandomProbabilities(
          &rng, RandomDisjointUnion(&rng, 3, [](Rng* r) {
            return RandomPolytree(r, 12, 1);
          }));
      const PreparedProblem p = PrepareProblem(query, instance);
      SCOPED_TRACE("dwt query, n=" + std::to_string(n));
      ExpectCollapsedPathByConstruction(p);
      dwt_lengths.insert(p.analysis.collapsed_length);
    }
  }
  EXPECT_EQ(*dwt_lengths.begin(), 1);
  EXPECT_GT(*dwt_lengths.rbegin(), 64);

  // Prop. 3.6: graded queries outside ⊔DWT on ⊔DWT instances. Eight
  // vertices per level keep every level populated, so the difference of
  // levels runs from 1 past 64.
  std::set<int64_t> graded_lengths;
  for (const size_t levels : {2, 3, 4, 8, 16, 32, 63, 64, 65, 66, 70}) {
    for (int rep = 0; rep < 3; ++rep) {
      const DiGraph query = RandomGradedDag(&rng, 8 * levels, levels, 0.7, 1);
      if (query.num_edges() == 0 || Classify(query).all_dwt) continue;
      const ProbGraph instance = AttachRandomProbabilities(
          &rng, RandomDisjointUnion(&rng, 3, [](Rng* r) {
            return RandomDownwardTree(r, 12, 1);
          }));
      const PreparedProblem p = PrepareProblem(query, instance);
      SCOPED_TRACE("graded query, levels=" + std::to_string(levels));
      ExpectCollapsedPathByConstruction(p);
      graded_lengths.insert(p.analysis.collapsed_length);
    }
  }
  ASSERT_FALSE(graded_lengths.empty());
  EXPECT_EQ(*graded_lengths.begin(), 1);
  EXPECT_GT(*graded_lengths.rbegin(), 64);
}

TEST(Case, NonGradedQueryOnForestIsImmediateZero) {
  DiGraph q(3);  // directed triangle: not graded
  AddEdgeOrDie(&q, 0, 1, 0);
  AddEdgeOrDie(&q, 1, 2, 0);
  AddEdgeOrDie(&q, 2, 0, 0);
  PreparedProblem p = PrepareProblem(q, Certain(MakeOutStar(3)));
  ASSERT_TRUE(p.immediate.has_value());
  EXPECT_EQ(*p.immediate, Rational::Zero());
  EXPECT_TRUE(p.analysis.tractable);
}

TEST(Case, TableClassLabels) {
  EXPECT_EQ(TableClassLabel(Classify(MakeOneWayPath(2))), "1WP");
  EXPECT_EQ(TableClassLabel(Classify(MakeArrowPath("><"))), "2WP");
  EXPECT_EQ(TableClassLabel(Classify(MakeOutStar(3))), "DWT");
  DiGraph u = DisjointUnion({MakeOneWayPath(1), MakeOneWayPath(2)});
  EXPECT_EQ(TableClassLabel(Classify(u)), "u1WP");
}

}  // namespace
}  // namespace phom
