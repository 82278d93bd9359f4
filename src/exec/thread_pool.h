// Fixed-size work-stealing thread pool.
//
// Built for the sweep workload (src/exec/sweep.h): a few dozen coarse,
// independent cells — whole simulation runs — fanned out across a fixed
// set of workers. Structure:
//
//  * every worker owns a deque: its own submissions push/pop at the back
//    (LIFO, depth-first for nested work), thieves take from the front;
//  * submissions from outside the pool land in a shared FIFO injector
//    queue, so externally submitted tasks are *dequeued* in submission
//    order. Completion order is not promised: a thread helping in wait()
//    dequeues from the same injector while the workers do, so two tasks
//    taken back to back may finish in either order (with one worker and
//    no helper, they also finish in submission order);
//  * an idle worker drains its own deque, then the injector, then steals
//    from siblings before sleeping on a condition variable.
//
// Tasks are std::packaged_task wrappers: an exception thrown by a task is
// captured into its future and rethrows at future.get() — nothing
// terminates the worker. wait() lets any thread (including a worker, so
// nested submit-and-wait cannot deadlock) run pending tasks while a
// future is not ready. A pool constructed with zero threads executes
// every submission inline on the calling thread, which is the serial
// baseline the determinism tests compare against.
//
// Determinism contract: the pool schedules, it never sequences — callers
// must make tasks independent (the sweep gives each cell its own RNG
// streams, registry and sinks) and merge results by task identity, never
// by completion order.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rfh {

class ThreadPool {
 public:
  /// `threads` workers; 0 runs every task inline in submit() (no workers,
  /// no queues — the degenerate serial pool).
  explicit ThreadPool(unsigned threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains every queued task (their futures must be satisfiable), then
  /// joins the workers.
  ~ThreadPool();

  /// Worker count (0 for an inline pool).
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Hardware concurrency clamped to at least 1.
  [[nodiscard]] static unsigned default_jobs() noexcept;

  /// Enqueue `fn`; the future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();  // inline pool: run on the caller, result already set
      executed_.fetch_add(1, std::memory_order_relaxed);
      return future;
    }
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Block until `future` is ready, executing pending pool tasks on the
  /// calling thread in the meantime. Safe to call from inside a task:
  /// a worker waiting on nested work keeps the pool moving instead of
  /// deadlocking it.
  template <typename T>
  T wait(std::future<T>& future) {
    using namespace std::chrono_literals;
    while (future.wait_for(0s) != std::future_status::ready) {
      if (!run_one()) future.wait_for(50us);
    }
    return future.get();
  }

  /// Execute one pending task on the calling thread if any is queued.
  /// Returns false when every queue was empty.
  bool run_one();

  /// Busy-wait (helping) until no task is queued or running.
  void wait_idle();

  struct Stats {
    std::uint64_t executed = 0;  ///< tasks completed (all queues)
    std::uint64_t stolen = 0;    ///< tasks taken from a sibling's deque
    std::uint64_t busy_ns = 0;   ///< summed wall time inside tasks
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  using Task = std::function<void()>;

  struct Worker {
    std::mutex mutex;
    std::deque<Task> deque;
  };

  void enqueue(Task task);
  void worker_loop(unsigned index);
  /// Dequeue honouring the steal order for `self` (own deque first when
  /// the caller is a worker of this pool; ~0u for foreign threads).
  bool try_dequeue(unsigned self, Task& out);
  void run_task(Task& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<Task> injector_;
  std::mutex injector_mutex_;
  std::mutex sleep_mutex_;
  std::condition_variable wakeup_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::uint64_t> running_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace rfh
