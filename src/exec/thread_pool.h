// Fixed-size FIFO thread pool: one mutex guards one task queue, workers
// sleep on one condition variable and pop from the front, so tasks are
// *dequeued* in submission order. Completion order is not promised: a
// thread helping in wait() pops from the same queue while the workers do.
// Every fan-out goes through parallel_for_shards (exec/parallel_for.h):
// the shards of an engine epoch phase and the cells of a sweep. Serial
// means no pool at all — callers pass a null pool for one job.
//
// Tasks are std::packaged_task wrappers: an exception thrown by a task is
// captured into its future and rethrows at future.get() — nothing
// terminates the worker. wait() lets any thread (including a worker, so
// nested submit-and-wait cannot deadlock) run queued tasks, front first,
// while a future is not ready.
//
// Determinism contract: the pool schedules, it never sequences — callers
// must make tasks independent and merge results by task identity, never
// by completion order.
#pragma once

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
  /// `threads` workers; at least one.
  explicit ThreadPool(unsigned threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains every queued task (their futures must be satisfiable), then
  /// joins the workers.
  ~ThreadPool();

  /// Worker count.
  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Hardware concurrency clamped to at least 1.
  [[nodiscard]] static unsigned default_jobs() noexcept;

  /// Enqueue `fn`; the future carries its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Block until `future` is ready, executing queued pool tasks on the
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

  /// Execute the front task on the calling thread if any is queued.
  /// Returns false when the queue was empty.
  bool run_one();

  /// Busy-wait (helping) until no task is queued or running.
  void wait_idle();

  struct Stats {
    /// Tasks started. A task counts when it leaves the queue, so the
    /// count is complete once every future is ready.
    std::uint64_t executed = 0;
    /// Always 0: nothing steals. Kept because perfbench reads it.
    std::uint64_t stolen = 0;
    /// Summed wall time inside tasks. Added after a task's future turns
    /// ready: complete only after wait_idle().
    std::uint64_t busy_ns = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  using Task = std::function<void()>;

  void enqueue(Task task);
  void worker_loop();
  /// Let the workers drain the queue, then join them.
  void stop();
  /// Pop the front task and run it unlocked. `lock` holds mutex_ on
  /// entry and on return; the queue must be non-empty.
  void run_front(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::condition_variable wakeup_;
  // Everything below up to threads_ is guarded by mutex_.
  std::deque<Task> queue_;
  std::uint64_t running_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t busy_ns_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rfh
