// Fixed-size thread pool, used by exp::ExperimentRunner to run independent
// seeds concurrently (one warm session per worker).

#ifndef FAIRKM_COMMON_THREAD_POOL_H_
#define FAIRKM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fairkm {

/// \brief Minimal fixed-size worker pool.
///
/// Tasks may not throw; work items are plain std::function<void()>. The
/// destructor drains the queue and joins all workers.
class ThreadPool {
 public:
  /// \brief Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// \brief Blocks until all submitted tasks have completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Hardware concurrency with a floor of 1.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace fairkm

#endif  // FAIRKM_COMMON_THREAD_POOL_H_
