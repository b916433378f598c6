#include "dcc/parallel/worker_pool.h"

#include <exception>

#include "dcc/obs/metrics.h"
#include "dcc/obs/trace.h"

namespace dcc::parallel {

namespace {

// Worker-thread identity: which pool owns this thread and which deque is
// its local one (a non-worker caller of Run has no local deque).
struct WorkerSlot {
  const WorkerPool* pool = nullptr;
  int index = -1;
};
thread_local WorkerSlot t_worker;

}  // namespace

// A fan-out in flight. `next` is the job dispenser: every participant —
// caller, ticket holders — claims indices from it, so each job runs
// exactly once no matter how many (possibly stale) tickets circulate.
// `active` counts ticket holders currently contributing; the caller drains
// the dispenser itself and then waits for active == 0, at which point no
// other thread can reach `fn` again (the dispenser is exhausted and only
// hands out indices >= n_jobs). Reference-counted: the calling Run plus
// one reference per published ticket.
struct WorkerPool::Task {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n_jobs = 0;
  std::atomic<std::size_t> next{0};       // job dispenser
  std::atomic<int> active{0};             // ticket holders inside JoinTask
  std::atomic<int> refs{1};               // owner + live tickets
  std::mutex mu;
  std::condition_variable cv;  // signaled when active drops to 0
  std::mutex error_mu;
  std::exception_ptr error;  // first job exception (guarded by error_mu)
};

WorkerPool::WorkerPool(int workers) {
  const std::size_t n = workers > 0 ? static_cast<std::size_t>(workers) : 0;
  n_workers_ = static_cast<int>(n);
  deques_ = std::make_unique<Deque[]>(n);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(static_cast<int>(i)); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Every task is complete by now (Run blocks until done), but stale
  // tickets may still hold references.
  for (int i = 0; i < n_workers_; ++i) {
    while (Task* t = deques_[i].PopBottom()) ReleaseRef(t);
  }
  for (Task* t : injection_) ReleaseRef(t);
}

WorkerPool& WorkerPool::Shared() {
  // Leaked on purpose: joining workers from a static destructor while other
  // statics may still Run is a shutdown hazard with zero upside.
  static WorkerPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return new WorkerPool(hw > 1 ? static_cast<int>(hw) - 1 : 0);
  }();
  return *pool;
}

void WorkerPool::ReleaseRef(Task* t) {
  if (t->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete t;
}

void WorkerPool::RunJob(Task& task, std::size_t i) {
  try {
    (*task.fn)(i);
  } catch (...) {
    // The first error wins; stop dispensing further jobs so the fan-out
    // drains quickly (jobs already running finish normally). The caller
    // reads `error` only after the completion barrier.
    task.next.store(task.n_jobs, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(task.error_mu);
    if (!task.error) task.error = std::current_exception();
  }
}

void WorkerPool::JoinTask(Task* task, bool stolen) {
  // Register before claiming: once a participant holds a job index, its
  // `active` increment is already visible to anyone who later observes the
  // dispenser exhausted, so the caller's active==0 wait cannot pass while
  // a job is still running.
  task->active.fetch_add(1, std::memory_order_acq_rel);
  bool joined = false;
  for (;;) {
    const std::size_t i = task->next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= task->n_jobs) break;
    if (!joined) {
      joined = true;
      if (stolen) {
        steal_count_.fetch_add(1, std::memory_order_relaxed);
        static obs::Counter& steals_metric =
            obs::MetricsRegistry::Global().GetCounter(
                "dcc_pool_steals_total",
                "Fan-outs joined via work stealing");
        steals_metric.Add(1);
        DCC_TRACE_INSTANT("pool.steal");
      }
    }
    RunJob(*task, i);
  }
  if (task->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(task->mu);
    }
    task->cv.notify_all();
  }
  ReleaseRef(task);
}

void WorkerPool::CollectStaleTickets(Deque& d) {
  for (;;) {
    Task* t = d.PopBottom();
    if (t == nullptr) return;
    if (t->next.load(std::memory_order_relaxed) < t->n_jobs) {
      // Still live (a fan-out enclosing the current job): put it back and
      // stop.
      d.TryPush(t);  // space is guaranteed — we just popped it
      return;
    }
    ReleaseRef(t);
  }
}

void WorkerPool::PublishTickets(Task* task, int count) {
  task->refs.fetch_add(count, std::memory_order_relaxed);
  Deque* local =
      t_worker.pool == this ? &deques_[t_worker.index] : nullptr;
  if (local != nullptr) CollectStaleTickets(*local);
  for (int k = 0; k < count; ++k) {
    if (local != nullptr && local->TryPush(task)) continue;
    std::lock_guard<std::mutex> lock(inj_mu_);
    injection_.push_back(task);
  }
  work_signal_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
  }
  idle_cv_.notify_all();
}

WorkerPool::Task* WorkerPool::FindWork(int self, bool* stolen) {
  *stolen = false;
  if (Task* t = deques_[self].PopBottom()) return t;
  {
    std::lock_guard<std::mutex> lock(inj_mu_);
    if (!injection_.empty()) {
      Task* t = injection_.front();
      injection_.pop_front();
      return t;
    }
  }
  const int n = n_workers_;
  for (int k = 1; k < n; ++k) {
    const int victim = (self + k) % n;
    if (Task* t = deques_[victim].Steal()) {
      *stolen = true;
      return t;
    }
  }
  return nullptr;
}

void WorkerPool::WorkerLoop(int self) {
  t_worker = WorkerSlot{this, self};
  for (;;) {
    const std::uint64_t seen = work_signal_.load(std::memory_order_acquire);
    bool stolen = false;
    if (Task* t = FindWork(self, &stolen)) {
      JoinTask(t, stolen);
      continue;
    }
    std::unique_lock<std::mutex> lock(idle_mu_);
    if (stop_) return;
    // A publish between the scan above and this lock moved the signal; go
    // look again instead of sleeping through it.
    if (work_signal_.load(std::memory_order_acquire) != seen) continue;
    idle_cv_.wait(lock);
    if (stop_) return;
  }
}

void WorkerPool::Run(std::size_t n_jobs,
                     const std::function<void(std::size_t)>& fn,
                     int max_workers) {
  if (n_jobs == 0) return;
  // The caller occupies one participation slot; tickets cover the rest, and
  // never more than there are jobs left to hand out.
  int helper_cap = max_workers > 0 ? max_workers - 1 : n_workers_;
  if (helper_cap > n_workers_) helper_cap = n_workers_;
  if (static_cast<std::size_t>(helper_cap) > n_jobs - 1) {
    helper_cap = static_cast<int>(n_jobs - 1);
  }
  if (n_workers_ == 0 || n_jobs == 1 || helper_cap <= 0) {
    for (std::size_t i = 0; i < n_jobs; ++i) fn(i);
    return;
  }

  Task* task = new Task;
  task->fn = &fn;
  task->n_jobs = n_jobs;
  PublishTickets(task, helper_cap);

  // The caller participates like any ticket holder, draining the dispenser
  // until it is exhausted.
  for (;;) {
    const std::size_t i = task->next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= n_jobs) break;
    RunJob(*task, i);
  }

  // The caller drained the dispenser (next >= n_jobs), so completion is
  // exactly "no ticket holder still inside a job": holders register in
  // `active` before claiming an index, and the dispenser only hands out
  // indices >= n_jobs from here on. The acq_rel traffic on `active` makes
  // every job's writes visible to the caller; late stale tickets touch
  // only the task's own (reference-counted) fields, never `fn`.
  {
    std::unique_lock<std::mutex> lock(task->mu);
    task->cv.wait(lock, [&] {
      return task->active.load(std::memory_order_acquire) == 0;
    });
  }
  std::exception_ptr err = task->error;
  ReleaseRef(task);
  if (err) std::rethrow_exception(err);
}

}  // namespace dcc::parallel
