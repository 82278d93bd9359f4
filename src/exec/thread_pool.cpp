#include "exec/thread_pool.h"

#include <algorithm>

#include "common/assert.h"

namespace rfh {

unsigned ThreadPool::default_jobs() noexcept {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  RFH_ASSERT_MSG(threads >= 1, "a pool needs a worker; serial is no pool");
  threads_.reserve(threads);
  try {
    for (unsigned i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop();  // join the workers already started before rethrowing
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wakeup_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  // Workers drain the queue before exiting, so nothing is left queued.
}

void ThreadPool::enqueue(Task task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wakeup_.notify_one();
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lock) {
  Task task = std::move(queue_.front());
  queue_.pop_front();
  ++running_;
  ++executed_;
  lock.unlock();
  const auto start = std::chrono::steady_clock::now();
  task();  // packaged_task: exceptions land in the future, never here
  const auto elapsed = std::chrono::steady_clock::now() - start;
  task = nullptr;  // destroy the callable's captures outside the lock
  lock.lock();
  busy_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  --running_;
}

bool ThreadPool::run_one() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) return false;
  run_front(lock);
  return true;
}

void ThreadPool::wait_idle() {
  using namespace std::chrono_literals;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!queue_.empty() || running_ > 0) {
    if (!queue_.empty()) {
      run_front(lock);
    } else {
      lock.unlock();
      std::this_thread::sleep_for(50us);
      lock.lock();
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wakeup_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and drained
    run_front(lock);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Stats{executed_, 0, busy_ns_};
}

}  // namespace rfh
