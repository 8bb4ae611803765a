#include "src/lifted/plan.h"

namespace phom::lifted {

const char* ToString(LiftedOp op) {
  switch (op) {
    case LiftedOp::kConstant: return "const";
    case LiftedOp::kLeaf: return "leaf";
    case LiftedOp::kIndependentUnion: return "iunion";
    case LiftedOp::kIndependentJoin: return "ijoin";
    case LiftedOp::kExclusiveUnion: return "xunion";
    case LiftedOp::kInclusionExclusion: return "ie";
  }
  return "?";
}

namespace {

void FormatNode(const UcqEvalPlan& plan, int32_t index, std::string* out) {
  const LiftedNode& node = plan.nodes[static_cast<size_t>(index)];
  switch (node.op) {
    case LiftedOp::kConstant:
      *out += node.constant.ToString();
      return;
    case LiftedOp::kLeaf:
      *out += 'L';
      *out += std::to_string(node.unit);
      return;
    default:
      break;
  }
  *out += ToString(node.op);
  *out += '(';
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ", ";
    if (node.op == LiftedOp::kInclusionExclusion) {
      *out += node.signs[i] >= 0 ? '+' : '-';
    }
    FormatNode(plan, node.children[i], out);
  }
  *out += ')';
}

}  // namespace

std::string FormatLiftedPlan(const UcqEvalPlan& plan) {
  if (plan.root < 0) return "(empty)";
  std::string out;
  FormatNode(plan, plan.root, &out);
  return out;
}

}  // namespace phom::lifted
