// Closed-loop claim generators shared by the end-to-end run and the traced ladder.
//
// A closed loop sends a claim only when one of its in-flight claims has its
// verdict, so a slow system receives less load. Every submission gets a slot
// (its stream position is its index) holding the benchmark's own clock readings
// and the verdict, so latencies and the correctness gate never depend on the
// service's own instruments.

#ifndef CLAIMBENCH_SRC_LOOP_H_
#define CLAIMBENCH_SRC_LOOP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "claimbench/src/common.h"
#include "claimbench/src/spans.h"

namespace tao::claimbench {

struct Slot {
  int64_t submit_ns = 0;     // just before the submit call
  int64_t submitted_ns = 0;  // submit returned (in process) / ack received (wire)
  int64_t verdict_ns = 0;    // verdict received; 0 = none (rejected or lost)
  uint64_t sequence = 0;     // accepted order: the service's ticket sequence
  bool accepted = false;
  uint32_t span_id = 0;      // the claim's span, when traced
  Outcome outcome;
};

struct LoopControl {
  explicit LoopControl(size_t capacity) : slots(capacity) {}

  std::vector<Slot> slots;  // one per submission, preallocated: the loop stops when full
  std::atomic<size_t> submitted{0};
  std::atomic<int64_t> delivered{0};
  std::atomic<bool> stop{false};
};

// Span names and placement for one traced loop.
struct LoopSpans {
  SpanLog* log = nullptr;  // null = untraced
  const char* claim = "";   // submit -> verdict
  const char* submit = "";  // the submit call (in process) / submit -> ack (wire)
  uint32_t parent = kNoParent;
  uint32_t lane = 0;
};

// Admits one claim in process; returns null when admission refused it.
using SubmitFn = std::function<std::shared_ptr<ClaimTicket>(BatchClaim claim)>;

// One generator thread (the caller's) keeps `window` claims in flight until
// `control.stop` is set or every slot is used, then waits for the outstanding
// verdicts.
void RunInProcessLoop(const std::vector<BatchClaim>& pool, const SubmitFn& submit,
                      size_t window, LoopControl& control, const LoopSpans& spans);

struct WireTotals {
  int64_t reconnects = 0;  // beyond the channel's first connect
  int64_t resubmissions = 0;
};

// One loopback channel, driven by the caller's thread, keeps `window` claims in
// flight until every slot is used, so accepted order is stream order.
WireTotals RunWireLoop(const std::vector<BatchClaim>& pool, int port, ModelId model,
                       size_t window, uint64_t session, LoopControl& control,
                       const LoopSpans& spans);

// Submission slots that were used, sorted by accepted order; false when the
// accepted order has a gap or a duplicate.
bool AcceptedOrder(const LoopControl& control, std::vector<size_t>& order);

}  // namespace tao::claimbench

#endif  // CLAIMBENCH_SRC_LOOP_H_
