#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace lowdiff {

namespace {

/// Blocks per thread in parallel_for: enough that a late-starting or slower
/// thread leaves little of the range behind it, few enough that claiming
/// stays cheap.
constexpr std::size_t kBlocksPerThread = 4;

/// One parallel_for call, shared by its caller and the helper tasks it
/// queues.  Held by shared_ptr, so a helper dequeued after the call has
/// returned finds no block left and touches nothing but this.
struct ParallelFor {
  ParallelFor(std::size_t begin, std::size_t n, std::size_t blocks,
              const std::function<void(std::size_t)>& f)
      : begin(begin), per(n / blocks), rem(n % blocks), blocks(blocks), f(f) {}

  /// Claims and runs blocks until none is left unclaimed.
  void drain() {
    for (std::size_t b; (b = next.fetch_add(1)) < blocks;) {
      std::exception_ptr thrown;
      if (!failed.load()) {
        try {
          const std::size_t lo = begin + b * per + std::min(b, rem);
          const std::size_t hi = lo + per + (b < rem ? 1 : 0);
          for (std::size_t i = lo; i < hi; ++i) f(i);
        } catch (...) {
          thrown = std::current_exception();
          failed.store(true);
        }
      }
      std::lock_guard lock(mutex);
      if (thrown && !error) error = thrown;
      if (++finished == blocks) cv.notify_all();
    }
  }

  const std::size_t begin, per, rem, blocks;
  const std::function<void(std::size_t)>& f;  // used only while unfinished
  std::atomic<std::size_t> next{0};           // the claim cursor
  std::atomic<bool> failed{false};            // skip blocks after a throw
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t finished = 0;  // claimed blocks run or skipped
  std::exception_ptr error;  // the first exception f threw
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        // stopping_ and drained: exit.
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& f) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t blocks = std::min(n, kBlocksPerThread * (size() + 1));
  auto job = std::make_shared<ParallelFor>(begin, n, blocks, f);
  const std::size_t helpers = std::min(size(), blocks - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back([job] { job->drain(); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();

  // The caller claims blocks too, so the call completes even when no
  // worker is free to pick a helper up; it then waits only for the blocks
  // workers claimed.
  job->drain();
  std::unique_lock lock(job->mutex);
  job->cv.wait(lock, [&job] { return job->finished == job->blocks; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace lowdiff
