#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "common/aligned_buffer.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace lowdiff {
namespace {

TEST(Error, EnsureThrowsWithMessage) {
  try {
    LOWDIFF_ENSURE(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(LOWDIFF_CHECK(2 + 2 == 4));
}

TEST(Crc32, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (RFC 3720 test vector).
  const char* data = "123456789";
  EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32c("", 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<unsigned char> data(1037);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  const std::uint32_t whole = crc32c(data.data(), data.size());
  std::uint32_t inc = 0;
  std::size_t pos = 0;
  for (std::size_t chunk : {1u, 3u, 64u, 500u, 469u}) {
    inc = crc32c(inc, data.data() + pos, chunk);
    pos += chunk;
  }
  ASSERT_EQ(pos, data.size());
  EXPECT_EQ(inc, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<unsigned char> data(256, 0xAB);
  const std::uint32_t before = crc32c(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(crc32c(data.data(), data.size()), before);
}

TEST(Crc32, SoftwareKernelMatchesDispatch) {
  // The dispatch entry point (hardware when available) must compute the
  // same function as the slice-by-8 fallback, at every length including
  // the unaligned head/tail paths.
  std::vector<unsigned char> data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 131 + 17);
  }
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1024u, 4099u}) {
    EXPECT_EQ(crc32c_sw(0, data.data(), len), crc32c(data.data(), len))
        << "len=" << len;
  }
  if (crc32c_hardware_available()) {
    for (std::size_t len : {1u, 9u, 65u, 4099u}) {
      EXPECT_EQ(detail::crc32c_hw(0, data.data(), len),
                crc32c_sw(0, data.data(), len))
          << "len=" << len;
    }
  }
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformFloatInRange) {
  Xoshiro256 rng(42);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform_float();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Rng, UniformBelowBounds) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Xoshiro256 rng(123);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatches) {
  Xoshiro256 rng(55);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.exponential(3.5);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 3.5, 0.1);
  // Var(X) = mean^2; the sample variance's standard error is ~0.08 here.
  EXPECT_NEAR(sq / n - mean * mean, 3.5 * 3.5, 0.3);
}

TEST(AlignedBuffer, AlignmentAndZeroSize) {
  AlignedBuffer empty;
  EXPECT_TRUE(empty.empty());
  AlignedBuffer buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % AlignedBuffer::kAlignment,
            0u);
}

TEST(AlignedBuffer, CopyAndMoveSemantics) {
  AlignedBuffer a(64);
  a.fill(std::byte{0x5A});
  AlignedBuffer b = a;  // copy
  EXPECT_EQ(std::memcmp(a.data(), b.data(), 64), 0);
  b.fill(std::byte{0x00});
  EXPECT_EQ(static_cast<unsigned char>(a.data()[0]), 0x5Au);  // deep copy

  AlignedBuffer c = std::move(a);
  EXPECT_EQ(c.size(), 64u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): asserting reset
}

TEST(AlignedBuffer, AsTypeChecksDivisibility) {
  AlignedBuffer buf(10);
  EXPECT_THROW(buf.as<float>(), Error);
  AlignedBuffer ok(12);
  EXPECT_NE(ok.as<float>(), nullptr);
}

TEST(ThreadPool, SubmitReturnsValues) {
  ThreadPool pool(4);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([](int x) { return x + 1; }, 41);
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForSingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> hits(257, 0);
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForRangeSmallerThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForFromInsideAWorkerTaskCompletes) {
  // The only worker runs the task that calls parallel_for, so no worker is
  // free for its blocks: the calling task must run them itself.
  std::vector<int> hits(100, 0);
  auto pool = std::make_unique<ThreadPool>(1);
  auto outer = pool->submit([&pool, &hits] {
    pool->parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  });
  if (outer.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // A deadlocked worker cannot be joined: leak the pool so the test fails
    // instead of hanging.
    (void)pool.release();
    FAIL() << "parallel_for called from the only worker deadlocked";
  }
  outer.get();
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForFinishesOnTheCallerWhenEveryWorkerIsBusy) {
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<std::size_t> parked{0};
  std::vector<std::atomic<int>> hits(64);
  ThreadPool pool(2);
  for (std::size_t w = 0; w < pool.size(); ++w) {
    pool.submit([&parked, released] {
      ++parked;
      released.wait();
    });
  }
  while (parked.load() < pool.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto call = std::async(std::launch::async, [&pool, &hits] {
    pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  });
  // Watchdog: a parallel_for that waits on a parked worker is released
  // after the bound instead of hanging the suite.
  const bool finished =
      call.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  call.get();
  EXPECT_TRUE(finished) << "parallel_for waited for a busy worker";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsOnlyAfterClaimedBlocksFinish) {
  // f(0) throws while f(1) is still running on another thread: parallel_for
  // must not return — releasing f — before f(1) has finished.
  std::atomic<bool> slow_started{false}, slow_finished{false};
  const std::function<void(std::size_t)> f = [&](std::size_t i) {
    if (i == 1) {
      slow_started = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      slow_finished = true;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!slow_started && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("boom");
  };
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 2, f), std::runtime_error);
  EXPECT_TRUE(slow_started);
  EXPECT_TRUE(slow_finished);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { ++count; });
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(Units, GbpsConversion) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(25.0), 25e9 / 8.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.00K");
  EXPECT_EQ(format_bytes(3 * kMiB + 200 * kKiB), "3.20M");
  EXPECT_EQ(format_bytes(9 * kGiB), "9.00G");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(sw.elapsed_sec(), 0.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_sec(), 1.0);
}

}  // namespace
}  // namespace lowdiff
