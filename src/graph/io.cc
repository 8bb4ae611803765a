#include "src/graph/io.h"

#include <limits>
#include <sstream>

namespace phom {

namespace {

std::string LabelName(LabelId label, const Alphabet* alphabet) {
  if (alphabet != nullptr && label < alphabet->size()) {
    return alphabet->Name(label);
  }
  std::string name = "L";
  name += std::to_string(label);
  return name;
}

struct ParsedEdgeLine {
  VertexId src;
  VertexId dst;
  std::string label;
  std::string prob;  // empty if absent
};

Result<ParsedEdgeLine> ParseEdgeLine(const std::string& line) {
  std::istringstream is(line);
  ParsedEdgeLine out;
  if (!(is >> out.src >> out.dst >> out.label)) {
    return Status::Invalid("bad edge line: " + line);
  }
  is >> out.prob;  // optional
  return out;
}

}  // namespace

std::string Serialize(const DiGraph& g, const Alphabet& alphabet) {
  std::ostringstream os;
  os << g.num_vertices() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) {
    os << e.src << " " << e.dst << " " << LabelName(e.label, &alphabet)
       << "\n";
  }
  return os.str();
}

std::string Serialize(const ProbGraph& g, const Alphabet& alphabet) {
  std::ostringstream os;
  os << g.num_vertices() << " " << g.num_edges() << "\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.graph().edge(e);
    os << edge.src << " " << edge.dst << " "
       << LabelName(edge.label, &alphabet) << " " << g.prob(e).ToString()
       << "\n";
  }
  return os.str();
}

Result<ProbGraph> ParseProbGraph(std::string_view text, Alphabet* alphabet) {
  std::istringstream is{std::string(text)};
  size_t n = 0;
  size_t m = 0;
  if (!(is >> n >> m)) return Status::Invalid("bad header");
  // Checked before ProbGraph allocates per-vertex storage: ids are 32-bit.
  if (n > std::numeric_limits<VertexId>::max()) {
    return Status::Invalid("vertex count " + std::to_string(n) +
                           " exceeds the 32-bit vertex id range");
  }
  std::string rest_of_header;
  std::getline(is, rest_of_header);
  ProbGraph g(n);
  for (size_t i = 0; i < m; ++i) {
    std::string line;
    if (!std::getline(is, line)) return Status::Invalid("truncated edge list");
    PHOM_ASSIGN_OR_RETURN(ParsedEdgeLine parsed, ParseEdgeLine(line));
    Rational prob = Rational::One();
    if (!parsed.prob.empty()) {
      PHOM_ASSIGN_OR_RETURN(prob, Rational::FromString(parsed.prob));
    }
    LabelId label = alphabet->Intern(parsed.label);
    PHOM_ASSIGN_OR_RETURN(EdgeId ignored,
                          g.AddEdge(parsed.src, parsed.dst, label, prob));
    (void)ignored;
  }
  return g;
}

Result<DiGraph> ParseDiGraph(std::string_view text, Alphabet* alphabet) {
  PHOM_ASSIGN_OR_RETURN(ProbGraph g, ParseProbGraph(text, alphabet));
  return g.graph();
}

namespace {

std::string DotBody(const DiGraph& g, const std::vector<Rational>* probs,
                    const Alphabet* alphabet) {
  std::ostringstream os;
  os << "digraph H {\n  rankdir=LR;\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    os << "  v" << v << " [shape=circle,label=\"" << v << "\"];\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    os << "  v" << edge.src << " -> v" << edge.dst << " [label=\""
       << LabelName(edge.label, alphabet);
    if (probs != nullptr && !(*probs)[e].is_one()) {
      os << " : " << (*probs)[e].ToString();
    }
    os << "\"";
    if (probs != nullptr && !(*probs)[e].is_one()) os << ", style=dashed";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace

std::string ToDot(const DiGraph& g, const Alphabet* alphabet) {
  return DotBody(g, nullptr, alphabet);
}

std::string ToDot(const ProbGraph& g, const Alphabet* alphabet) {
  return DotBody(g.graph(), &g.probs(), alphabet);
}

}  // namespace phom
