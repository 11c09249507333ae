// Fixed-size thread pool for fanning independent work items (one document's
// annotate -> graph -> densify pipeline) across cores. Submit() returns a
// std::future carrying the task's result; exceptions thrown inside a task
// are captured and rethrown from future.get(), so callers see failures
// exactly as they would on the serial path.
//
// The queue is a single shared deque guarded by one mutex. That is
// work-stealing-friendly in the sense that workers pull whenever they go
// idle, so uneven task durations balance automatically; per-worker deques
// with stealing can replace the shared queue later without changing the API.
#ifndef QKBFLY_UTIL_THREAD_POOL_H_
#define QKBFLY_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace qkbfly {

/// A fixed pool of worker threads draining a shared task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least one).
  explicit ThreadPool(int num_threads);

  /// Drains all queued tasks, then joins the workers. Futures returned by
  /// Submit() are therefore always fulfilled, even for tasks still queued
  /// when the destructor runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `f` and returns a future for its result. Safe to call from
  /// any thread, including from inside a running task.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only; std::function needs copyable callables,
    // so the task lives behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Runs produce(i) for every i in [0, n) on `pool` (inline when it is null)
/// and consume(i, result) on the calling thread in index order, each as soon
/// as result i is ready. An exception from either rethrows from the call
/// once every submitted task has finished, so none outlives its captures.
/// Never call it from a task of `pool`: a full pool would wait on itself.
template <typename Produce, typename Consume>
void ForEachOrdered(ThreadPool* pool, size_t n, Produce&& produce,
                    Consume&& consume) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) consume(i, produce(i));
    return;
  }
  using R = std::invoke_result_t<Produce&, size_t>;
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  try {
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool->Submit([&produce, i] { return produce(i); }));
    }
    for (size_t i = 0; i < n; ++i) consume(i, futures[i].get());
  } catch (...) {
    for (std::future<R>& future : futures) {
      if (future.valid()) future.wait();
    }
    throw;
  }
}

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_THREAD_POOL_H_
