// Spans the benchmark records around its own calls into each layer.
//
// A span has a name, a start and end (steady clock), the span that caused it
// and the stream position of the claim it belongs to. Spans are kept in memory
// and written once, at exit, as chrome://tracing JSON. A span's self time is its
// duration minus the part of it that its child spans cover.

#ifndef CLAIMBENCH_SRC_SPANS_H_
#define CLAIMBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tao::claimbench {

inline constexpr uint32_t kNoParent = 0;
inline constexpr int64_t kNoClaim = -1;

struct Span {
  const char* name = "";  // static string
  uint32_t id = 0;
  uint32_t parent = kNoParent;
  uint32_t lane = 0;  // chrome://tracing row (one per rung)
  int64_t claim = kNoClaim;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  // Ids start at 1; kNoParent is 0.
  uint32_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records a span. Returns the span's id.
  uint32_t Record(Span span);

  struct SelfTime {
    std::string name;
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per span name: count, summed duration and summed self time.
  std::vector<SelfTime> SelfTimes() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace tao::claimbench

#endif  // CLAIMBENCH_SRC_SPANS_H_
