#include "src/graph/cq_parser.h"

#include <cctype>
#include <sstream>
#include <unordered_map>

namespace phom {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
}

/// Cursor over one disjunct's text slice. `base` is the slice's byte offset
/// into the ORIGINAL query string, so every diagnostic points into what the
/// user actually typed, not into an internal substring.
struct Cursor {
  std::string_view text;
  size_t base = 0;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool AtEnd() {
    SkipSpace();
    return pos >= text.size();
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  /// The token starting at the current position, rendered for diagnostics:
  /// a full identifier, a single punctuation character, or "end of input".
  std::string OffendingToken() {
    SkipSpace();
    if (pos >= text.size()) return "end of input";
    if (IsIdentChar(text[pos])) {
      size_t end = pos;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      std::string token = "'";
      token.append(text.substr(pos, end - pos));
      token += '\'';
      return token;
    }
    return std::string("'") + text[pos] + "'";
  }

  /// Parse failure at the CURRENT position: byte offset + offending token.
  Status Error(const std::string& expected) {
    SkipSpace();
    return Status::Invalid("cq parse error at byte " +
                           std::to_string(base + pos) + ": " + expected +
                           ", got " + OffendingToken());
  }

  Result<std::string> Identifier(const std::string& expected) {
    SkipSpace();
    size_t start = pos;
    while (pos < text.size() && IsIdentChar(text[pos])) ++pos;
    if (pos == start) return Error(expected);
    return std::string(text.substr(start, pos - start));
  }
};

Result<ParsedQuery> ParseDisjunct(std::string_view text, size_t base,
                                  Alphabet* alphabet) {
  ParsedQuery out{DiGraph(0), {}};
  std::unordered_map<std::string, VertexId> var_ids;
  auto intern_var = [&](const std::string& name) {
    auto it = var_ids.find(name);
    if (it != var_ids.end()) return it->second;
    VertexId id = out.graph.AddVertex();
    var_ids.emplace(name, id);
    out.variables.push_back(name);
    return id;
  };

  Cursor cursor{text, base};
  bool first = true;
  while (!cursor.AtEnd()) {
    if (!first && !cursor.Consume(',')) {
      return cursor.Error("expected ',' between atoms");
    }
    if (cursor.AtEnd()) break;  // allow trailing comma
    first = false;
    PHOM_ASSIGN_OR_RETURN(std::string relation,
                          cursor.Identifier("expected a relation name"));
    if (!cursor.Consume('(')) {
      return cursor.Error("expected '(' after relation '" + relation + "'");
    }
    PHOM_ASSIGN_OR_RETURN(
        std::string src,
        cursor.Identifier("expected a variable in atom '" + relation + "'"));
    if (!cursor.Consume(',')) {
      return cursor.Error("binary atom '" + relation +
                          "' needs two arguments; expected ','");
    }
    PHOM_ASSIGN_OR_RETURN(
        std::string dst,
        cursor.Identifier("expected a variable in atom '" + relation + "'"));
    if (!cursor.Consume(')')) {
      return cursor.Error("expected ')' closing atom '" + relation + "'");
    }
    LabelId label = alphabet->Intern(relation);
    VertexId a = intern_var(src);
    VertexId b = intern_var(dst);
    // Repeated atoms are idempotent; a second label on the same pair is a
    // genuine error under the no-multi-edge semantics.
    if (std::optional<EdgeId> existing = out.graph.FindEdge(a, b)) {
      if (out.graph.edge(*existing).label != label) {
        return cursor.Error("conflicting atoms on (" + src + ", " + dst +
                            "): the paper's graphs carry one label per "
                            "ordered pair");
      }
      continue;
    }
    PHOM_ASSIGN_OR_RETURN(EdgeId ignored, out.graph.AddEdge(a, b, label));
    (void)ignored;
  }
  if (out.graph.num_vertices() == 0) {
    return cursor.Error("expected a non-empty disjunct");
  }
  return out;
}

}  // namespace

Result<ParsedQuery> ParseConjunctiveQuery(std::string_view text,
                                          Alphabet* alphabet) {
  // A stray '|' in single-CQ context gets a pointed diagnostic instead of
  // the generic "expected ',' between atoms".
  size_t bar = text.find('|');
  if (bar != std::string_view::npos) {
    return Status::Invalid(
        "cq parse error at byte " + std::to_string(bar) +
        ": '|' builds a union of CQs — parse this text with ParseUcq");
  }
  return ParseDisjunct(text, 0, alphabet);
}

Result<ParsedUcq> ParseUcq(std::string_view text, Alphabet* alphabet) {
  ParsedUcq out;
  size_t start = 0;
  while (true) {
    size_t bar = text.find('|', start);
    std::string_view slice = bar == std::string_view::npos
                                 ? text.substr(start)
                                 : text.substr(start, bar - start);
    PHOM_ASSIGN_OR_RETURN(ParsedQuery disjunct,
                          ParseDisjunct(slice, start, alphabet));
    out.ucq.disjuncts.push_back(std::move(disjunct.graph));
    out.variables.push_back(std::move(disjunct.variables));
    if (bar == std::string_view::npos) break;
    start = bar + 1;
  }
  return out;
}

std::string FormatConjunctiveQuery(const DiGraph& query,
                                   const Alphabet& alphabet,
                                   const std::vector<std::string>* names) {
  std::ostringstream os;
  auto name = [&](VertexId v) {
    if (names != nullptr && v < names->size()) return (*names)[v];
    std::string fallback = "v";
    fallback += std::to_string(v);
    return fallback;
  };
  bool first = true;
  for (const Edge& e : query.edges()) {
    if (!first) os << ", ";
    first = false;
    if (e.label < alphabet.size()) {
      os << alphabet.Name(e.label);
    } else {
      os << 'L' << e.label;
    }
    os << "(" << name(e.src) << ", " << name(e.dst) << ")";
  }
  return os.str();
}

std::string FormatUcq(const Ucq& ucq, const Alphabet& alphabet) {
  std::string out;
  bool first = true;
  for (const DiGraph& d : ucq.disjuncts) {
    if (!first) out += " | ";
    first = false;
    out += FormatConjunctiveQuery(d, alphabet);
  }
  return out;
}

}  // namespace phom
