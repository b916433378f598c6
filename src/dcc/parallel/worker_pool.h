// A persistent work-stealing pool for data-parallel fan-out: Run(n, fn)
// executes fn(0..n-1) across the pool's threads plus the calling thread,
// blocking until every job finished. One process-wide pool
// (`WorkerPool::Shared()`, sized once to the hardware concurrency) backs
// both the scenario sweep loop and the engine's sharded rounds, so neither
// pays thread creation or teardown per call.
//
// Scheduling model (work stealing):
//  * Every fan-out is a heap-allocated task with an atomic job dispenser;
//    participation is advertised through *tickets* (pointers to the task).
//    A top-level Run pushes its tickets onto a shared injection queue; a
//    nested Run — a job fanning out again — pushes them onto the calling
//    worker's own bottom-growing deque and keeps draining jobs itself, so
//    nesting never blocks and never degrades to a serial loop.
//  * Idle workers first pop their own deque (newest first), then take from
//    the injection queue, then steal the *oldest* ticket from another
//    worker's deque. Stealing oldest-first is what lets the tail of a
//    sweep donate idle workers to the last runs' engine shards.
//  * A ticket is a hint, not an obligation: the dispenser hands each job
//    index out exactly once, so a stale ticket for a completed task is a
//    cheap no-op. Tasks are reference-counted (caller + one ref per
//    ticket) and freed when the last ticket drains.
//
// Semantics:
//  * Jobs are independent; the pool guarantees nothing about which thread
//    runs which job, so callers needing determinism must make each job a
//    pure function of its index (the engine's shard workers are).
//  * The first exception thrown by a job is captured and rethrown from Run
//    after all jobs drain; later exceptions are dropped.
//  * Run establishes a full happens-before edge: everything jobs wrote is
//    visible to the caller when Run returns.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcc::parallel {

class WorkerPool {
 public:
  // Spawns `workers` threads. The calling thread of Run also executes jobs,
  // so parallelism() == workers + 1; workers == 0 is a valid (serial) pool.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The process-wide pool, sized once on first use to
  // hardware_concurrency() - 1 workers (never negative). Lives for the
  // process; intentionally leaked so late static destructors can still
  // call into it.
  static WorkerPool& Shared();

  // Max threads a Run can occupy (pool workers + the caller).
  int parallelism() const { return n_workers_ + 1; }

  // Runs fn(i) for i in [0, n_jobs), returning when all completed. At most
  // max_workers threads participate (0 = no cap beyond parallelism());
  // max_workers == 1, a 0-worker pool, and n_jobs <= 1 run the loop inline
  // on the caller. Nested calls fan out through the caller's deque (see
  // header comment) instead of going inline.
  void Run(std::size_t n_jobs, const std::function<void(std::size_t)>& fn,
           int max_workers = 0);

  // Cumulative deque steals across the pool's lifetime (tickets taken from
  // another worker's local deque; injection-queue pickups don't count).
  std::uint64_t steal_count() const {
    return steal_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Task;

  // Bounded Chase-Lev-style deque of task tickets. The owning worker
  // pushes and pops at the bottom; thieves take from the top. All slot
  // accesses are atomic (a thief may read a slot it then fails to claim),
  // and a full deque overflows to the injection queue instead of
  // resizing.
  class Deque {
   public:
    // Owner only. False when full.
    bool TryPush(Task* t) {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed);
      const std::int64_t top = top_.load(std::memory_order_acquire);
      if (b - top >= kCap) return false;
      slots_[static_cast<std::size_t>(b & kMask)].store(
          t, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_release);
      return true;
    }

    // Owner only.
    Task* PopBottom() {
      const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      bottom_.store(b, std::memory_order_seq_cst);
      std::int64_t top = top_.load(std::memory_order_seq_cst);
      if (top > b) {  // empty
        bottom_.store(b + 1, std::memory_order_relaxed);
        return nullptr;
      }
      Task* t =
          slots_[static_cast<std::size_t>(b & kMask)].load(
              std::memory_order_relaxed);
      if (top != b) return t;  // more than one element: no thief can race us
      // Last element: race thieves for it through the top index.
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst)) {
        t = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
      return t;
    }

    // Any thread. Takes the oldest ticket; nullptr when empty or when the
    // claim raced (callers just move on to the next victim).
    Task* Steal() {
      std::int64_t top = top_.load(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (top >= b) return nullptr;
      Task* t =
          slots_[static_cast<std::size_t>(top & kMask)].load(
              std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst)) {
        return nullptr;
      }
      return t;
    }

   private:
    static constexpr std::int64_t kCap = 256;  // power of two
    static constexpr std::int64_t kMask = kCap - 1;
    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::array<std::atomic<Task*>, static_cast<std::size_t>(kCap)> slots_{};
  };

  void WorkerLoop(int self);
  // Makes `count` tickets for `task` visible to other threads (local deque
  // for workers, injection queue otherwise) and wakes sleepers.
  void PublishTickets(Task* task, int count);
  // Pops and releases completed-task tickets from the bottom of `d`,
  // stopping at the first live one (a fan-out of this worker that
  // encloses the current job). Owner only; keeps a worker's deque from
  // accumulating stale tickets across many nested Runs.
  void CollectStaleTickets(Deque& d);
  // Takes one ticket: own deque, then injection queue, then steal.
  Task* FindWork(int self, bool* stolen);
  // Contributes to `task` until its dispenser is exhausted, then drops the
  // ticket's reference.
  void JoinTask(Task* task, bool stolen);
  // Executes job `i`, capturing the first exception into the task.
  void RunJob(Task& task, std::size_t i);
  static void ReleaseRef(Task* t);

  // Fixed before any worker spawns: workers consult the count while the
  // constructor is still growing `threads_`, so they must never read the
  // vector itself.
  int n_workers_ = 0;
  std::vector<std::thread> threads_;
  std::unique_ptr<Deque[]> deques_;  // one per worker thread

  std::mutex inj_mu_;
  std::deque<Task*> injection_;  // tickets from non-worker threads; FIFO

  // Sleep/wake: workers re-scan when the signal moved since their last
  // failed scan, so a publish between scan and sleep is never missed.
  std::atomic<std::uint64_t> work_signal_{0};
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool stop_ = false;  // guarded by idle_mu_

  std::atomic<std::uint64_t> steal_count_{0};
};

}  // namespace dcc::parallel
