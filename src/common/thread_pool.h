#pragma once

/// \file thread_pool.h
/// Fixed-size worker pool with future-returning submission and a blocking
/// parallel_for.  Used for:
///  - the layer-wise communication / snapshot thread pools of LowDiff+
///    (paper §5, Algorithm 2's P_g and P_s),
///  - the parallel recovery module's read-ahead, coordinate-sliced Adam
///    replay and pairwise merges (paper Fig. 7),
///  - CPU-side batched gradient accumulation.
///
/// RAII: the destructor drains the queue and joins all workers (CP.23).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace lowdiff {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins.
  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Submits a callable; the returned future carries its result/exception.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         ... as = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(fn), std::move(as)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      tasks_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs f(i) exactly once for every i in [begin, end) and returns when
  /// all have run.  The range is split into contiguous blocks, a few per
  /// thread (workers + the caller), claimed from one shared cursor: the
  /// calling thread claims blocks too, and then waits only for blocks a
  /// worker has already claimed.  It therefore finishes even when every
  /// worker is busy or blocked — including when called from a task running
  /// on this pool.  Blocks run in no fixed order or thread, so f must be
  /// safe to call concurrently for distinct i.
  ///
  /// If f throws, blocks not yet claimed are skipped, and the first
  /// exception is rethrown once every claimed block has finished: no f(i)
  /// runs after parallel_for returns.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& f);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace lowdiff
