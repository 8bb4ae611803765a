#include "src/graph/io.h"

#include <gtest/gtest.h>

#include "src/graph/builders.h"

namespace phom {
namespace {

TEST(Io, SerializeParseRoundTrip) {
  Alphabet alphabet;
  LabelId r = alphabet.Intern("R");
  LabelId s = alphabet.Intern("S");
  ProbGraph g(3);
  AddEdgeOrDie(&g, 0, 1, r, Rational::Half());
  AddEdgeOrDie(&g, 1, 2, s, Rational(3, 4));
  std::string text = Serialize(g, alphabet);

  Alphabet alphabet2;
  Result<ProbGraph> parsed = ParseProbGraph(text, &alphabet2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_vertices(), 3u);
  EXPECT_EQ(parsed->num_edges(), 2u);
  EXPECT_EQ(parsed->prob(0), Rational::Half());
  EXPECT_EQ(parsed->prob(1), Rational(3, 4));
  EXPECT_EQ(alphabet2.Name(parsed->graph().edge(1).label), "S");
}

TEST(Io, ParseAcceptsDecimalAndFractionProbabilities) {
  Alphabet alphabet;
  Result<ProbGraph> parsed =
      ParseProbGraph("2 2\n0 1 R 0.25\n1 0 S 1/3\n", &alphabet);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->prob(0), Rational(1, 4));
  EXPECT_EQ(parsed->prob(1), Rational(1, 3));
}

TEST(Io, ParseDefaultsToCertain) {
  Alphabet alphabet;
  Result<ProbGraph> parsed = ParseProbGraph("2 1\n0 1 R\n", &alphabet);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->prob(0), Rational::One());
}

TEST(Io, ParseErrors) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseProbGraph("", &alphabet).ok());
  EXPECT_FALSE(ParseProbGraph("2 2\n0 1 R\n", &alphabet).ok());  // truncated
  EXPECT_FALSE(ParseProbGraph("2 1\n0 5 R\n", &alphabet).ok());  // range
  EXPECT_FALSE(ParseProbGraph("2 1\n0 1 R 2.5\n", &alphabet).ok());  // prob
  EXPECT_FALSE(
      ParseProbGraph("2 2\n0 1 R\n0 1 S\n", &alphabet).ok());  // multi-edge
}

TEST(Io, ParseRejectsVertexCountsBeyondThirtyTwoBitIds) {
  // Rejected with a Status before any per-vertex storage is allocated.
  for (const char* header : {"18446744073709551615 0", "4611686018427387904 0"}) {
    Alphabet alphabet;
    Result<ProbGraph> parsed = Status::Invalid("not run");
    EXPECT_NO_THROW(parsed = ParseProbGraph(header, &alphabet)) << header;
    EXPECT_FALSE(parsed.ok()) << header;
  }
}

TEST(Io, DotContainsEdgesAndProbabilities) {
  Alphabet alphabet;
  LabelId r = alphabet.Intern("R");
  ProbGraph g(2);
  AddEdgeOrDie(&g, 0, 1, r, Rational::Half());
  std::string dot = ToDot(g, &alphabet);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("R : 1/2"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Io, DiGraphParse) {
  Alphabet alphabet;
  Result<DiGraph> parsed = ParseDiGraph("3 2\n0 1 R\n2 1 R\n", &alphabet);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_edges(), 2u);
  EXPECT_EQ(parsed->edge(1).src, 2u);
}

}  // namespace
}  // namespace phom
