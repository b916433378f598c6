// Bounded admission of external work.
//
// The scenario service accepts requests from arbitrarily many client
// connections, but the process has one shared WorkerPool that also runs
// sweeps and engine shards. AdmissionQueue is the valve in front of it: at
// most `capacity` admitted jobs run at once, and an admitting thread
// *blocks* when the queue is full — backpressure propagates to the socket
// instead of unbounded work piling onto the pool.
//
// Execute() runs the job on the admitting thread, so the caller observes
// its effects and exceptions synchronously. Parallelism inside a job
// still reaches the pool: an engine sharding its rounds publishes tickets
// the pool's workers take.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>

namespace dcc::parallel {

class AdmissionQueue {
 public:
  // `capacity` >= 1: max jobs admitted at once.
  explicit AdmissionQueue(int capacity);

  // Blocks until a slot frees, runs `fn` to completion on the calling
  // thread, and rethrows anything it threw. Returns false (without running
  // fn) when the queue is draining.
  bool Execute(const std::function<void()>& fn);

  // Rejects all future Execute calls and wakes blocked admitters; jobs
  // already admitted finish normally. Idempotent.
  void Drain();

  int capacity() const { return capacity_; }
  // Jobs currently admitted, and the lifetime peak (service stats).
  int depth() const;
  int peak_depth() const;

 private:
  const int capacity_;

  mutable std::mutex mu_;
  std::condition_variable slot_cv_;
  int depth_ = 0;       // guarded by mu_
  int peak_depth_ = 0;  // guarded by mu_
  bool draining_ = false;
};

}  // namespace dcc::parallel
