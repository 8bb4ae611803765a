#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/alphabet.h"
#include "src/graph/cq_parser.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

/// ParserFuzz — seeded byte mutations of the query texts the parser suites
/// use (graph_cq_parser_test.cc, graph_ucq_parser_test.cc), fed to
/// ParseConjunctiveQuery and ParseUcq. Every mutant must return a Result
/// without throwing (and without tripping PHOM_CHECK, which would abort the
/// binary); an accepted mutant must re-format through
/// FormatConjunctiveQuery / FormatUcq to a fixed point. Both accepted and
/// rejected mutants must occur.

namespace phom {
namespace {

/// Tokens spliced over identifiers: empty, lone punctuation, separators,
/// whitespace, a whole atom, a long name, non-ASCII and NUL bytes.
const std::vector<std::string>& HostileTokens() {
  static const std::vector<std::string> tokens = {
      "", "_", "'", "0", "x y", "R(x", ")", "(", ",", "|", "||", " ", "\t\n",
      "R(x,y)", "R(x,y), S(y,x)", "x'", std::string(300, 'a'), "\xff",
      "\xc3\xa9", std::string(1, '\0'), "v0"};
  return tokens;
}

bool IsIdentifierChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z') || c == '_' || c == '\'';
}

/// Spans of the maximal identifier runs (relation and variable names).
std::vector<std::pair<size_t, size_t>> IdentifierSpans(
    const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < text.size();) {
    if (!IsIdentifierChar(text[i])) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < text.size() && IsIdentifierChar(text[end])) ++end;
    spans.emplace_back(i, end - i);
    i = end;
  }
  return spans;
}

std::string Mutate(std::string text, Rng* rng) {
  const int64_t mutations = rng->UniformInt(1, 3);
  for (int64_t m = 0; m < mutations; ++m) {
    const int64_t size = static_cast<int64_t>(text.size());
    switch (rng->UniformInt(0, 4)) {
      case 0:  // flip one bit
        if (size > 0) {
          text[rng->UniformInt(0, size - 1)] ^=
              static_cast<char>(1 << rng->UniformInt(0, 7));
        }
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + rng->UniformInt(0, size),
                    static_cast<char>(rng->UniformInt(0, 255)));
        break;
      case 2:  // delete one byte
        if (size > 0) text.erase(text.begin() + rng->UniformInt(0, size - 1));
        break;
      case 3:  // truncate
        text.resize(static_cast<size_t>(rng->UniformInt(0, size)));
        break;
      default: {  // splice a hostile token over an identifier
        const std::vector<std::pair<size_t, size_t>> spans =
            IdentifierSpans(text);
        if (spans.empty()) break;
        const auto& [at, length] = rng->Pick(spans);
        text.replace(at, length, rng->Pick(HostileTokens()));
        break;
      }
    }
  }
  return text;
}

/// Parses one mutant as a single CQ and checks the contract; returns whether
/// it parsed.
bool CheckCqMutant(const std::string& mutant) {
  Alphabet alphabet;
  Result<ParsedQuery> parsed = Status::Invalid("not run");
  EXPECT_NO_THROW(parsed = ParseConjunctiveQuery(mutant, &alphabet));
  if (!parsed.ok()) return false;
  const std::string formatted =
      FormatConjunctiveQuery(parsed->graph, alphabet, &parsed->variables);
  Alphabet again_alphabet;
  Result<ParsedQuery> again = ParseConjunctiveQuery(formatted, &again_alphabet);
  EXPECT_TRUE(again.ok()) << formatted << ": " << again.status().ToString();
  if (!again.ok()) return true;
  EXPECT_EQ(FormatConjunctiveQuery(again->graph, again_alphabet,
                                   &again->variables),
            formatted);
  EXPECT_EQ(again->variables, parsed->variables);
  return true;
}

/// Parses one mutant as a UCQ and checks the contract; returns whether it
/// parsed.
bool CheckUcqMutant(const std::string& mutant) {
  Alphabet alphabet;
  Result<ParsedUcq> parsed = Status::Invalid("not run");
  EXPECT_NO_THROW(parsed = ParseUcq(mutant, &alphabet));
  if (!parsed.ok()) return false;
  const std::string formatted = FormatUcq(parsed->ucq, alphabet);
  Alphabet again_alphabet;
  Result<ParsedUcq> again = ParseUcq(formatted, &again_alphabet);
  EXPECT_TRUE(again.ok()) << formatted << ": " << again.status().ToString();
  if (!again.ok()) return true;
  EXPECT_EQ(FormatUcq(again->ucq, again_alphabet), formatted);
  EXPECT_EQ(again->ucq.disjuncts.size(), parsed->ucq.disjuncts.size());
  return true;
}

template <typename Check>
void RunFuzz(uint64_t seed, const std::vector<std::string>& seeds, int mutants,
             Check check) {
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string mutant = Mutate(rng.Pick(seeds), &rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
    accepted += check(mutant) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Both sides of the contract must be exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, mutants);
}

TEST(ParserFuzz, ConjunctiveQueryMutantsReturnAResultAndReformatStably) {
  const std::vector<std::string> seeds = {
      "R(x,y), S(y,z), S(t,z)", "  U( a , b ) ,U(b,c), ", "R(x,x), R(x,x)",
      "R(x,y), S(x,y)",         "R(x)",                   "R(x,y,z)",
      "R(x,y) S(y,z)",          "R(x,y",                  "(x,y)",
      "R(x,y), S(y,z), T(z,x)", "R(x,y) | S(y,z)"};
  for (const std::string& text : seeds) CheckCqMutant(text);
  RunFuzz(test_util::kCrosscheckSeedBase + 91, seeds, 10000, CheckCqMutant);
}

TEST(ParserFuzz, UcqMutantsReturnAResultAndReformatStably) {
  const std::vector<std::string> seeds = {
      "R(x,y), S(y,z) | T(x,y)", "R(x,y), S(y,z)",
      "S(x,y) | R(x,y), S(y,z) | R(x,y)", "R(x,y) | S(y",
      "R(x,y) | S(y,z) T(a,b)",  "| R(x,y)",
      "R(x,y) | ",               "R(x,y) || S(y,z)",
      "T(a,b) | R(x,y), S(x,y)"};
  for (const std::string& text : seeds) CheckUcqMutant(text);
  RunFuzz(test_util::kCrosscheckSeedBase + 92, seeds, 10000, CheckUcqMutant);
}

}  // namespace
}  // namespace phom
