// Differential test of the one-pass InstanceContext build (case.h): the
// components split straight from the instance under the label filter, their
// classes and the lazily reassembled restricted instance must equal what the
// two-pass build derived — RestrictToLabels, then a split of the restricted
// graph along ConnectedComponents, then Classify on every piece.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/case.h"
#include "src/graph/classify.h"
#include "tests/test_util.h"

namespace phom {
namespace {

using test_util::RandomBlockDigraph;

/// The two-pass split: components of the restricted graph by
/// ConnectedComponents, edges in restricted order.
std::vector<ComponentView> RefSplit(const ProbGraph& restricted) {
  const DiGraph& g = restricted.graph();
  std::vector<std::vector<VertexId>> comps = ConnectedComponents(g);
  std::vector<uint32_t> comp_of(g.num_vertices(), 0);
  std::vector<uint32_t> local(g.num_vertices(), 0);
  std::vector<ComponentView> views(comps.size());
  for (uint32_t c = 0; c < comps.size(); ++c) {
    views[c].graph = ProbGraph(comps[c].size());
    views[c].vertex_map = comps[c];
    for (uint32_t i = 0; i < comps[c].size(); ++i) {
      comp_of[comps[c][i]] = c;
      local[comps[c][i]] = i;
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    ComponentView& view = views[comp_of[edge.src]];
    AddEdgeOrDie(&view.graph, local[edge.src], local[edge.dst], edge.label,
                 restricted.prob(e));
    view.edge_map.push_back(e);
  }
  return views;
}

void ExpectSameGraph(const ProbGraph& got, const ProbGraph& want) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.graph().edges(), want.graph().edges());
  EXPECT_EQ(got.probs(), want.probs());
}

void ExpectSameViews(const std::vector<ComponentView>& got,
                     const std::vector<ComponentView>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(got[c].vertex_map, want[c].vertex_map);
    EXPECT_EQ(got[c].edge_map, want[c].edge_map);
    ExpectSameGraph(got[c].graph, want[c].graph);
  }
}

/// Random sorted subset of labels 0..4; the instances use labels 0..3, so
/// label 4 is always absent and the empty set occurs.
std::vector<LabelId> RandomLabels(Rng* rng) {
  std::vector<LabelId> labels;
  for (LabelId l = 0; l <= 4; ++l) {
    if (rng->Bernoulli(0.5)) labels.push_back(l);
  }
  return labels;
}

void ExpectContextMatchesTwoPassBuild(const ProbGraph& instance,
                                      const std::vector<LabelId>& labels) {
  const ProbGraph restricted = instance.RestrictToLabels(labels);
  const std::vector<ComponentView> want = RefSplit(restricted);
  std::shared_ptr<const InstanceContext> ctx =
      BuildInstanceContext(instance, labels);

  ExpectSameViews(ctx->components, want);
  ExpectSameViews(SplitComponents(restricted), want);
  ASSERT_EQ(ctx->component_classes.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(ctx->component_classes[c], Classify(want[c].graph.graph()));
  }
  EXPECT_EQ(ctx->instance_class, Classify(restricted.graph()))
      << ctx->instance_class.ToString();
  EXPECT_EQ(ctx->NumUncertainEdges(), restricted.NumUncertainEdges());
  ExpectSameGraph(ctx->instance(), restricted);
}

TEST(InstanceContextDiff, MatchesTwoPassBuildOnRandomInstances) {
  Rng rng(1703032011);
  for (int i = 0; i < 600; ++i) {
    SCOPED_TRACE(i);
    ProbGraph instance =
        AttachRandomProbabilities(&rng, RandomBlockDigraph(&rng, 14, 4), 3);
    ExpectContextMatchesTwoPassBuild(instance, RandomLabels(&rng));
  }
}

TEST(InstanceContextDiff, EmptyInstanceAndAbsentLabels) {
  ExpectContextMatchesTwoPassBuild(ProbGraph(0), {});
  ExpectContextMatchesTwoPassBuild(ProbGraph(0), {0, 1});
  test_util::PaperFigure1 fig;
  ExpectContextMatchesTwoPassBuild(fig.instance, {});
  ExpectContextMatchesTwoPassBuild(fig.instance, {7});
  ExpectContextMatchesTwoPassBuild(fig.instance, {0, 1});
}

TEST(InstanceContextDiff, MergeComponentsInvertsSplit) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    ProbGraph g =
        AttachRandomProbabilities(&rng, RandomBlockDigraph(&rng, 14, 4), 3);
    ExpectSameGraph(MergeComponents(SplitComponents(g)), g);
  }
}

TEST(InstanceContextLazy, ConcurrentFirstReadsBuildOneInstance) {
  Rng rng(8);
  ProbGraph instance = AttachRandomProbabilities(
      &rng, DisjointUnion({RandomTwoWayPath(&rng, 64, 2),
                           RandomDownwardTree(&rng, 64, 2, 0.4)}),
      4);
  const std::vector<LabelId> labels = {0, 1};
  for (int round = 0; round < 20; ++round) {
    std::shared_ptr<const InstanceContext> ctx =
        BuildInstanceContext(instance, labels);
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const ProbGraph*> seen(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        seen[t] = &ctx->instance();
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
    ExpectSameGraph(*seen[0], instance.RestrictToLabels(labels));
  }
}

}  // namespace
}  // namespace phom
