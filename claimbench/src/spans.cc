#include "claimbench/src/spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace tao::claimbench {

uint32_t SpanLog::Record(Span span) {
  if (span.id == 0) {
    span.id = NextId();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return span.id;
}

std::vector<SpanLog::SelfTime> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint32_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& span : spans_) {
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const int64_t begin = std::max(child->begin_ns, span.begin_ns);
        const int64_t end = std::min(child->end_ns, span.end_ns);
        if (end > begin) {
          covered.emplace_back(begin, end);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = span.begin_ns;
    for (const auto& [begin, end] : covered) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    ++entry.count;
    entry.total_ms += static_cast<double>(span.end_ns - span.begin_ns) / 1e6;
    entry.self_ms += static_cast<double>(span.end_ns - span.begin_ns - covered_ns) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) {
    out.push_back(entry);
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : std::min_element(spans_.begin(), spans_.end(),
                                                               [](const Span& a, const Span& b) {
                                                                 return a.begin_ns < b.begin_ns;
                                                               })->begin_ns;
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"cat\": \"claimbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %u, \"parent\": %u, \"claim\": %" PRId64 "}}",
                 i == 0 ? "" : ",", span.name, span.lane,
                 static_cast<double>(span.begin_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.begin_ns) / 1e3, span.id, span.parent,
                 span.claim);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace tao::claimbench
