#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

/// \file trace.h
/// Spans recorded by the benchmark around its own calls into the library
/// (and, for the executor pass, derived from the library's RequestStats).
/// Spans live in memory and are written out once, when the run ends.

namespace perfbench {

/// Monotonic nanoseconds on the serving clock (steady_clock, the clock
/// RequestStats uses).
int64_t NowNs();

enum class SpanName : uint8_t {
  kRequest = 0,   ///< root: one request, end to end
  kParse,         ///< graph: ParseConjunctiveQuery
  kPrepare,       ///< core: EvalSession::Prepare
  kContext,       ///< core: context lookup (flag = miss, i.e. a build)
  kPlan,          ///< core: PlanComponentDispatch
  kKernel,        ///< core: SolvePreparedComponent / SolvePrepared
  kCombine,       ///< core: CombinePreparedComponents
  kSubmit,        ///< serve: BatchExecutor / ShardedServer Submit
  kQueue,         ///< serve: RequestStats enqueued -> started
  kSolve,         ///< serve: RequestStats started -> finished
  kPublish,       ///< serve: finished -> completion callback
};

const char* ToString(SpanName name);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanName name;
  bool flag = false;
  uint32_t parent = kNoParent;
  uint32_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Single-threaded span recorder. Open/Close nest: a span opened while
/// another is open becomes its child.
class Tracer {
 public:
  uint32_t Open(SpanName name, uint32_t request);
  void Close(uint32_t id, bool flag = false);
  /// A closed span with explicit times (e.g. from RequestStats).
  uint32_t Add(SpanName name, uint32_t request, uint32_t parent,
               int64_t start_ns, int64_t end_ns);

  const std::deque<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the time covered by its children.
  std::vector<double> SelfUs() const;

  /// Writes one tab-separated line per span; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  /// A deque: recording never relocates earlier spans mid-request.
  std::deque<Span> spans_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench
