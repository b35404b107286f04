#include "claimbench/src/loop.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "src/net/client_channel.h"

namespace tao::claimbench {

void RunInProcessLoop(const std::vector<BatchClaim>& pool, const SubmitFn& submit,
                      size_t window, LoopControl& control, const LoopSpans& spans) {
  const bool traced = spans.log != nullptr;
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  for (size_t i = 0; i < control.slots.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < window || control.stop.load(); });
    }
    if (control.stop.load()) {
      break;
    }
    Slot& slot = control.slots[i];
    BatchClaim claim = pool[i % pool.size()];
    if (traced) {
      slot.span_id = spans.log->NextId();
    }
    slot.submit_ns = NowNs();
    std::shared_ptr<ClaimTicket> ticket = submit(std::move(claim));
    slot.submitted_ns = NowNs();
    control.submitted.store(i + 1);
    if (traced) {
      spans.log->Record({.name = spans.submit, .parent = slot.span_id, .lane = spans.lane,
                         .claim = static_cast<int64_t>(i), .begin_ns = slot.submit_ns,
                         .end_ns = slot.submitted_ns});
    }
    if (ticket == nullptr) {
      continue;
    }
    slot.accepted = true;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++in_flight;
    }
    // The ticket outlives its own delivery callback, so the raw pointer is safe;
    // capturing the shared_ptr would make the ticket own itself.
    const ClaimTicket* raw = ticket.get();
    ticket->OnDelivered([&, i, raw, traced](const BatchClaimOutcome& outcome) {
      Slot& delivered = control.slots[i];
      delivered.verdict_ns = NowNs();
      delivered.sequence = raw->sequence();
      delivered.outcome = FromBatch(outcome);
      if (traced) {
        spans.log->Record({.name = spans.claim, .id = delivered.span_id,
                           .parent = spans.parent, .lane = spans.lane,
                           .claim = static_cast<int64_t>(i),
                           .begin_ns = delivered.submit_ns, .end_ns = delivered.verdict_ns});
      }
      control.delivered.fetch_add(1);
      // Notify under the lock: once in_flight reaches 0 the generator may return
      // and destroy mu and cv, which it cannot do while this callback holds mu.
      std::lock_guard<std::mutex> lock(mu);
      --in_flight;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return in_flight == 0; });
}

WireTotals RunWireLoop(const std::vector<BatchClaim>& pool, int port, ModelId model,
                       size_t window, uint64_t session, LoopControl& control,
                       const LoopSpans& spans) {
  const bool traced = spans.log != nullptr;
  RetriableChannel channel("127.0.0.1", port, session);
  // Dial before the first claim: a lazy dial would count as a reconnect and send
  // the first claim twice (the server's dedup drops the copy).
  channel.Connect();
  std::deque<std::pair<size_t, uint64_t>> pending;  // slot, request id
  for (size_t next = 0;;) {
    while (pending.size() < window && next < control.slots.size()) {
      const size_t i = next++;
      Slot& slot = control.slots[i];
      if (traced) {
        slot.span_id = spans.log->NextId();
      }
      uint64_t request_id = 0;
      slot.submit_ns = NowNs();
      const WireSubmitAck ack = channel.Submit(model, 0, pool[i % pool.size()], &request_id);
      slot.submitted_ns = NowNs();
      control.submitted.store(next);
      if (traced) {
        spans.log->Record({.name = spans.submit, .parent = slot.span_id, .lane = spans.lane,
                           .claim = static_cast<int64_t>(i), .begin_ns = slot.submit_ns,
                           .end_ns = slot.submitted_ns});
      }
      if (ack.status != WireStatus::kAccepted) {
        continue;
      }
      slot.accepted = true;
      slot.sequence = ack.ticket;
      pending.emplace_back(i, request_id);
    }
    if (pending.empty()) {
      break;
    }
    const auto [i, request_id] = pending.front();
    pending.pop_front();
    WireVerdict verdict;
    if (!channel.WaitVerdict(request_id, verdict)) {
      continue;  // lost: the cross-check counts a slot without a verdict
    }
    Slot& slot = control.slots[i];
    slot.verdict_ns = NowNs();
    slot.outcome = FromWire(verdict);
    if (traced) {
      spans.log->Record({.name = spans.claim, .id = slot.span_id, .parent = spans.parent,
                         .lane = spans.lane, .claim = static_cast<int64_t>(i),
                         .begin_ns = slot.submit_ns, .end_ns = slot.verdict_ns});
    }
    control.delivered.fetch_add(1);
  }
  return {.reconnects = std::max<int64_t>(0, channel.reconnects() - 1),
          .resubmissions = channel.resubmissions()};
}

bool AcceptedOrder(const LoopControl& control, std::vector<size_t>& order) {
  order.clear();
  const size_t used = std::min(control.submitted.load(), control.slots.size());
  for (size_t i = 0; i < used; ++i) {
    if (control.slots[i].accepted) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return control.slots[a].sequence < control.slots[b].sequence;
  });
  for (size_t k = 0; k < order.size(); ++k) {
    if (control.slots[order[k]].sequence != k) {
      return false;
    }
  }
  return true;
}

}  // namespace tao::claimbench
