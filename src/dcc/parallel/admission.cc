#include "dcc/parallel/admission.h"

#include <algorithm>

#include "dcc/common/types.h"
#include "dcc/obs/trace.h"

namespace dcc::parallel {

AdmissionQueue::AdmissionQueue(int capacity) : capacity_(capacity) {
  DCC_REQUIRE(capacity >= 1, "admission: capacity must be >= 1");
}

bool AdmissionQueue::Execute(const std::function<void()>& fn) {
  {
    // Queue residency: the span is the time this admitter spent blocked
    // on a full queue (zero-length when a slot was free).
    DCC_TRACE_SPAN("admission.wait");
    std::unique_lock<std::mutex> lock(mu_);
    slot_cv_.wait(lock, [&] { return draining_ || depth_ < capacity_; });
    if (draining_) return false;
    ++depth_;
    peak_depth_ = std::max(peak_depth_, depth_);
    DCC_TRACE_COUNTER("admission.depth", depth_);
  }
  DCC_TRACE_SPAN("admission.run");
  // Release the slot whatever the job does; its exception propagates.
  struct SlotGuard {
    AdmissionQueue* q;
    ~SlotGuard() {
      std::lock_guard<std::mutex> lock(q->mu_);
      --q->depth_;
      q->slot_cv_.notify_one();
    }
  } guard{this};
  fn();
  return true;
}

void AdmissionQueue::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  slot_cv_.notify_all();
}

int AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

int AdmissionQueue::peak_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_depth_;
}

}  // namespace dcc::parallel
