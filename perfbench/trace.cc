#include "perfbench/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* ToString(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kParse: return "graph.parse";
    case SpanName::kPrepare: return "core.prepare";
    case SpanName::kContext: return "core.context";
    case SpanName::kPlan: return "core.plan";
    case SpanName::kKernel: return "core.kernel";
    case SpanName::kCombine: return "core.combine";
    case SpanName::kSubmit: return "serve.submit";
    case SpanName::kQueue: return "serve.queue";
    case SpanName::kSolve: return "serve.solve";
    case SpanName::kPublish: return "serve.publish";
  }
  return "?";
}

uint32_t Tracer::Open(SpanName name, uint32_t request) {
  const uint32_t id = static_cast<uint32_t>(spans_.size());
  Span span{name};
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.request = request;
  open_.push_back(id);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return id;
}

void Tracer::Close(uint32_t id, bool flag) {
  spans_[id].end_ns = NowNs();
  spans_[id].flag = flag;
  open_.pop_back();
}

uint32_t Tracer::Add(SpanName name, uint32_t request, uint32_t parent,
                     int64_t start_ns, int64_t end_ns) {
  Span span{name};
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::SelfUs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].us();
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent] -= s.us();
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tparent\trequest\tstart_ns\tend_ns\tflag\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%ld\t%u\t%lld\t%lld\t%d\n", i, ToString(s.name),
                 s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                 s.request, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.flag ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
