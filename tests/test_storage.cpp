#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/buffer_pool.h"
#include "common/crc32.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "compress/topk.h"
#include "model/model_state.h"
#include "storage/async_writer.h"
#include "storage/atomic_commit.h"
#include "storage/bandwidth.h"
#include "storage/deadline.h"
#include "storage/fault_injection.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "storage/serializer.h"
#include "storage/stacking.h"
#include "storage/throttled.h"
#include "support/writer_schedule.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

class BackendSuite : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    if (GetParam() == "mem") {
      backend_ = std::make_shared<MemStorage>();
    } else {
      dir_ = std::filesystem::temp_directory_path() /
             ("lowdiff_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
      std::filesystem::remove_all(dir_);
      backend_ = std::make_shared<FileStorage>(dir_);
    }
  }
  void TearDown() override {
    backend_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  std::shared_ptr<StorageBackend> backend_;
  std::filesystem::path dir_;
};

TEST_P(BackendSuite, WriteReadRoundTrip) {
  backend_->write("a/key1", bytes_of("hello"));
  auto back = backend_->read("a/key1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("hello"));
}

TEST_P(BackendSuite, OverwriteReplaces) {
  backend_->write("k", bytes_of("one"));
  backend_->write("k", bytes_of("twotwo"));
  EXPECT_EQ(*backend_->read("k"), bytes_of("twotwo"));
}

TEST_P(BackendSuite, MissingKeyIsNullopt) {
  EXPECT_FALSE(backend_->read("missing").has_value());
  EXPECT_FALSE(backend_->exists("missing"));
}

TEST_P(BackendSuite, RemoveDeletes) {
  backend_->write("k", bytes_of("x"));
  EXPECT_TRUE(backend_->exists("k"));
  backend_->remove("k");
  EXPECT_FALSE(backend_->exists("k"));
}

TEST_P(BackendSuite, ListIsSorted) {
  backend_->write("b/2", bytes_of("x"));
  backend_->write("a/1", bytes_of("y"));
  backend_->write("c/3", bytes_of("z"));
  const auto keys = backend_->list();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST_P(BackendSuite, StatsAccumulate) {
  backend_->write("k", bytes_of("12345"));
  backend_->read("k");
  const auto stats = backend_->stats();
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.bytes_written, 5u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.bytes_read, 5u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendSuite, ::testing::Values("mem", "file"),
                         [](const auto& info) { return info.param; });

TEST(MemStorage, ResidentBytesAndClear) {
  MemStorage mem;
  mem.write("a", bytes_of("1234"));
  mem.write("b", bytes_of("56"));
  EXPECT_EQ(mem.resident_bytes(), 6u);
  mem.clear();  // hardware failure: CPU memory lost
  EXPECT_EQ(mem.resident_bytes(), 0u);
  EXPECT_FALSE(mem.exists("a"));
}

TEST(FileStorage, SanitizesHostileKeys) {
  const auto dir = std::filesystem::temp_directory_path() / "lowdiff_sanitize";
  std::filesystem::remove_all(dir);
  FileStorage fs(dir);
  EXPECT_THROW(fs.write("../escape", bytes_of("x")), Error);
  fs.write("weird key!@#", bytes_of("ok"));
  EXPECT_TRUE(fs.read("weird key!@#").has_value());
  std::filesystem::remove_all(dir);
}

// --- serializer ---------------------------------------------------------------

ModelSpec small_spec() {
  ModelSpec spec;
  spec.name = "s";
  spec.layers = {{"w", {16, 4}}, {"b", {16}}};
  return spec;
}

TEST(Serializer, ModelStateRoundTripBitExact) {
  ModelState state(small_spec());
  state.init_random(5);
  state.set_step(321);
  const auto bytes = serialize_model_state(state);
  const auto back = deserialize_model_state(bytes, small_spec());
  EXPECT_TRUE(state.bit_equal(back));
}

TEST(Serializer, ModelStateSpecMismatchRejected) {
  ModelState state(small_spec());
  const auto bytes = serialize_model_state(state);
  ModelSpec other;
  other.layers = {{"w", {8, 4}}};
  EXPECT_THROW(deserialize_model_state(bytes, other), Error);
}

TEST(Serializer, CrcDetectsEveryCorruptedRegion) {
  // The decoders trust bytes committed_read() has checked, so a committed
  // record is checked once, by its marker's CRC over the whole framed
  // record: the type tag (byte 6), the stored payload CRC (byte 15) and
  // payload bytes across the record.
  ModelState state(small_spec());
  state.init_random(9);
  const auto bytes = serialize_model_state(state);
  MemStorage mem;
  Xoshiro256 rng(1);
  ASSERT_TRUE(committed_write(mem, "full", bytes, RetryPolicy{}, rng).ok());
  for (std::size_t pos : {std::size_t{6}, std::size_t{15}, std::size_t{25},
                          bytes.size() / 2, bytes.size() - 1}) {
    auto corrupt = bytes;
    corrupt[pos] ^= std::byte{0x40};
    ASSERT_TRUE(mem.write("full", corrupt).ok());
    EXPECT_EQ(committed_read(mem, "full", RetryPolicy{}, rng).status().code(),
              ErrorCode::kCorrupted)
        << "corruption at byte " << pos << " was not detected";
  }
}

TEST(Serializer, UnframeReturnsAViewWithoutChecksumming) {
  std::vector<std::byte> payload(257);
  Xoshiro256 rng(3);
  for (auto& b : payload) b = static_cast<std::byte>(rng());
  auto record = frame(RecordType::kDiffCheckpoint, payload);

  const Frame f = unframe(record);
  EXPECT_EQ(f.type, RecordType::kDiffCheckpoint);
  EXPECT_EQ(f.payload_crc, crc32c(payload.data(), payload.size()));
  EXPECT_EQ(f.payload.data(), record.data() + framed_size(0));  // no copy
  EXPECT_EQ(f.payload.size(), payload.size());

  // The payload CRC is not unframe()'s to check: committed_read() checked
  // these bytes against their marker before any decoder sees them.
  record.back() ^= std::byte{0x01};
  EXPECT_EQ(unframe(record).payload.data(), record.data() + framed_size(0));
}

TEST(Serializer, BadMagicAndTruncationRejected) {
  ModelState state(small_spec());
  auto bytes = serialize_model_state(state);
  auto bad_magic = bytes;
  bad_magic[0] = std::byte{'X'};
  EXPECT_THROW(unframe(bad_magic), Error);
  EXPECT_THROW(unframe(std::span<const std::byte>(bytes.data(), 10)), Error);
  EXPECT_THROW(unframe(std::span<const std::byte>(bytes.data(), bytes.size() - 1)),
               Error);
}

TEST(Serializer, TypeTagsEnforced) {
  ModelState state(small_spec());
  const auto full = serialize_model_state(state);
  EXPECT_THROW(deserialize_diff(full), Error);
  EXPECT_THROW(deserialize_batch(full), Error);

  Tensor g(64);
  Xoshiro256 rng(1);
  ops::fill_normal(g.span(), rng, 1.0f);
  const auto diff = serialize_diff(TopKCompressor(0.1).compress(g.cspan(), 3));
  EXPECT_THROW(deserialize_model_state(diff, small_spec()), Error);
  const auto back = deserialize_diff(diff);
  EXPECT_EQ(back.iteration, 3u);
}

TEST(Serializer, BatchRoundTrip) {
  TopKCompressor comp(0.2);
  Tensor g(50);
  Xoshiro256 rng(2);
  BatchedGrad batch;
  batch.first_iteration = 4;
  batch.last_iteration = 5;
  for (std::uint64_t i = 4; i <= 5; ++i) {
    ops::fill_normal(g.span(), rng, 1.0f);
    batch.members.push_back(comp.compress(g.cspan(), i));
  }
  const auto back = deserialize_batch(serialize_batch(batch));
  EXPECT_EQ(back.members.size(), 2u);
  EXPECT_EQ(back.members[1], batch.members[1]);
}

// --- throttling -----------------------------------------------------------------

TEST(Bandwidth, TransferTimeFormula) {
  LinkSpec link{2.0e9, 1e-3};
  EXPECT_DOUBLE_EQ(link.transfer_time(2'000'000'000ull), 1.0 + 1e-3);
  EXPECT_DOUBLE_EQ(link.transfer_time(0), 1e-3);
}

TEST(Throttler, ModeledTimeAccumulates) {
  Throttler throttler({1.0e9, 0.0}, /*time_scale=*/1e-9);  // ~no real sleep
  throttler.acquire(500'000'000ull);
  throttler.acquire(250'000'000ull);
  EXPECT_NEAR(throttler.busy_time(), 0.75, 1e-9);
  EXPECT_EQ(throttler.total_bytes(), 750'000'000ull);
}

TEST(Throttler, ActuallyDelaysAtScale) {
  Throttler throttler({1.0e6, 0.0}, /*time_scale=*/1.0);  // 1 MB/s
  Stopwatch sw;
  throttler.acquire(30'000);  // 30 ms modeled
  EXPECT_GE(sw.elapsed_sec(), 0.025);
}

TEST(Throttler, SerializesConcurrentTransfers) {
  // Two concurrent 25 ms transfers over one link must take ~50 ms total.
  Throttler throttler({1.0e6, 0.0}, 1.0);
  Stopwatch sw;
  std::thread a([&throttler] { throttler.acquire(25'000); });
  std::thread b([&throttler] { throttler.acquire(25'000); });
  a.join();
  b.join();
  EXPECT_GE(sw.elapsed_sec(), 0.045);
}

TEST(ThrottledStorage, DelegatesAndThrottles) {
  auto mem = std::make_shared<MemStorage>();
  ThrottledStorage throttled(mem, {1.0e9, 0.0}, /*time_scale=*/1e-9);
  throttled.write("k", bytes_of("data"));
  EXPECT_TRUE(mem->exists("k"));
  EXPECT_EQ(*throttled.read("k"), bytes_of("data"));
  EXPECT_GT(throttled.busy_time(), 0.0);
  throttled.remove("k");
  EXPECT_FALSE(throttled.exists("k"));
}

// --- async writer ------------------------------------------------------------------

TEST(AsyncWriter, WritesEverythingOnFlush) {
  auto mem = std::make_shared<MemStorage>();
  AsyncWriter writer(mem);
  for (int i = 0; i < 50; ++i) {
    writer.submit("key" + std::to_string(i), bytes_of(std::to_string(i)));
  }
  writer.flush();
  EXPECT_EQ(writer.completed_jobs(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*mem->read("key" + std::to_string(i)), bytes_of(std::to_string(i)));
  }
}

TEST(AsyncWriter, OnDoneCallbackRuns) {
  auto mem = std::make_shared<MemStorage>();
  AsyncWriter writer(mem);
  std::atomic<int> done{0};
  writer.submit("k", bytes_of("v"), [&done] { ++done; });
  writer.flush();
  EXPECT_EQ(done.load(), 1);
}

TEST(AsyncWriter, BoundedQueueTrySubmit) {
  auto mem = std::make_shared<MemStorage>();
  auto throttled = std::make_shared<ThrottledStorage>(mem, LinkSpec{1.0e6, 0.0}, 1.0);
  AsyncWriter writer(throttled, /*max_pending=*/1);
  // First job occupies the writer (slow link); the queue holds one more.
  ASSERT_TRUE(writer.try_submit("a", std::vector<std::byte>(20'000)));
  bool saturated = false;
  for (int i = 0; i < 20 && !saturated; ++i) {
    saturated = !writer.try_submit("b" + std::to_string(i),
                                   std::vector<std::byte>(20'000));
  }
  EXPECT_TRUE(saturated);
  writer.flush();
}

TEST(AsyncWriter, ShutdownDrains) {
  auto mem = std::make_shared<MemStorage>();
  {
    AsyncWriter writer(mem);
    for (int i = 0; i < 10; ++i) {
      writer.submit("k" + std::to_string(i), bytes_of("x"));
    }
  }  // destructor drains
  EXPECT_EQ(mem->list().size(), 10u);
}

TEST(AsyncWriter, RejectsAfterShutdown) {
  auto mem = std::make_shared<MemStorage>();
  AsyncWriter writer(mem);
  writer.shutdown();
  EXPECT_FALSE(writer.submit("k", bytes_of("x")));
}

}  // namespace
}  // namespace lowdiff

namespace lowdiff {
namespace {

/// Backend that fails every write — exercises the async writer's error path.
class FailingStorage final : public StorageBackend {
 public:
  Status write(const std::string& key, std::span<const std::byte>) override {
    return Status(ErrorCode::kUnavailable, "disk on fire: " + key);
  }
  Result<std::vector<std::byte>> read(const std::string& key) const override {
    return Result<std::vector<std::byte>>(ErrorCode::kNotFound, key);
  }
  bool exists(const std::string&) const override { return false; }
  void remove(const std::string&) override {}
  std::vector<std::string> list() const override { return {}; }
  StorageStats stats() const override { return {}; }
};

AsyncWriter::Options fast_retry_options() {
  AsyncWriter::Options opt;
  opt.retry.base_delay_sec = 1e-6;
  opt.retry.max_delay_sec = 1e-5;
  return opt;
}

TEST(AsyncWriter, SurvivesBackendFailures) {
  auto failing = std::make_shared<FailingStorage>();
  AsyncWriter writer(failing, fast_retry_options());
  set_log_level(LogLevel::kOff);  // silence the expected error lines
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(writer.submit("k" + std::to_string(i), std::vector<std::byte>(8)));
  }
  writer.flush();  // must not hang or crash
  EXPECT_EQ(writer.completed_jobs(), 5u);
  EXPECT_EQ(writer.failed_jobs(), 5u);
  // kUnavailable is retryable: every job burned its full retry budget.
  const auto budget =
      static_cast<std::uint64_t>(fast_retry_options().retry.max_attempts - 1);
  EXPECT_EQ(writer.retries(), 5u * budget);
  set_log_level(LogLevel::kWarn);
}

TEST(AsyncWriter, OnDoneSkippedOnFailure) {
  auto failing = std::make_shared<FailingStorage>();
  AsyncWriter writer(failing, fast_retry_options());
  set_log_level(LogLevel::kOff);
  std::atomic<int> done{0};
  writer.submit("k", bytes_of("v"), [&done] { ++done; });
  writer.flush();
  EXPECT_EQ(done.load(), 0) << "on_done must not run for a failed write";
  set_log_level(LogLevel::kWarn);
}

TEST(FileStorage, NestedKeysAndRemoveMissing) {
  const auto dir = std::filesystem::temp_directory_path() / "lowdiff_nested";
  std::filesystem::remove_all(dir);
  FileStorage fs(dir);
  fs.write("a/b/c/deep", std::vector<std::byte>(3));
  EXPECT_EQ(fs.list(), std::vector<std::string>{"a/b/c/deep"});
  EXPECT_NO_THROW(fs.remove("not/there"));
  std::filesystem::remove_all(dir);
}

TEST(Serializer, EmptyKeyRejectedByFileStorage) {
  const auto dir = std::filesystem::temp_directory_path() / "lowdiff_empty";
  std::filesystem::remove_all(dir);
  FileStorage fs(dir);
  EXPECT_THROW(fs.write("", std::vector<std::byte>(1)), Error);
  std::filesystem::remove_all(dir);
}

// --- retry policy -------------------------------------------------------------

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.base_delay_sec = 1e-6;
  p.max_delay_sec = 1e-5;
  return p;
}

TEST(RetryPolicy, DelayGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.base_delay_sec = 1e-3;
  p.multiplier = 2.0;
  p.max_delay_sec = 4e-3;
  p.jitter = 0.5;
  Xoshiro256 rng(7);
  for (int retry = 0; retry < 8; ++retry) {
    double expected = p.base_delay_sec;
    for (int i = 0; i < retry; ++i) expected *= p.multiplier;
    expected = std::min(expected, p.max_delay_sec);
    const double d = p.delay_sec(retry, rng);
    EXPECT_GE(d, expected * (1.0 - p.jitter) - 1e-12) << "retry " << retry;
    EXPECT_LE(d, expected * (1.0 + p.jitter) + 1e-12) << "retry " << retry;
  }
}

TEST(RetryPolicy, ZeroJitterIsDeterministic) {
  RetryPolicy p;
  p.base_delay_sec = 2e-3;
  p.jitter = 0.0;
  Xoshiro256 rng(1);
  EXPECT_DOUBLE_EQ(p.delay_sec(0, rng), 2e-3);
  EXPECT_DOUBLE_EQ(p.delay_sec(1, rng), 4e-3);
}

TEST(RunWithRetry, SucceedsAfterTransientFailures) {
  Xoshiro256 rng(3);
  int calls = 0;
  std::uint64_t retries = 0;
  const Status s = run_with_retry(
      fast_policy(), rng,
      [&calls] {
        return ++calls < 3 ? Status(ErrorCode::kTransient, "blip") : Status{};
      },
      &retries);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(RunWithRetry, ExhaustsBudgetOnPersistentFailure) {
  Xoshiro256 rng(3);
  int calls = 0;
  std::uint64_t retries = 0;
  const Status s = run_with_retry(
      fast_policy(), rng,
      [&calls] {
        ++calls;
        return Status(ErrorCode::kUnavailable, "down");
      },
      &retries);
  EXPECT_EQ(s.code(), ErrorCode::kExhausted);
  EXPECT_EQ(calls, fast_policy().max_attempts);
  EXPECT_EQ(retries, static_cast<std::uint64_t>(fast_policy().max_attempts - 1));
}

TEST(RunWithRetry, NonRetryableReturnsImmediately) {
  Xoshiro256 rng(3);
  int calls = 0;
  const Status s = run_with_retry(fast_policy(), rng, [&calls] {
    ++calls;
    return Status(ErrorCode::kCorrupted, "bad crc");
  });
  EXPECT_EQ(s.code(), ErrorCode::kCorrupted);
  EXPECT_EQ(calls, 1);
}

// --- fault injection ----------------------------------------------------------

TEST(FaultInjection, DefaultSpecIsTransparent) {
  auto mem = std::make_shared<MemStorage>();
  FaultInjectingStorage faulty(mem, FaultSpec{});
  EXPECT_TRUE(faulty.write("k", bytes_of("v")).ok());
  ASSERT_TRUE(faulty.read("k").has_value());
  EXPECT_EQ(*faulty.read("k"), bytes_of("v"));
  EXPECT_EQ(faulty.fault_stats().total(), 0u);
}

TEST(FaultInjection, DeterministicGivenSeed) {
  FaultSpec spec;
  spec.write_error_rate = 0.3;
  spec.seed = 99;
  std::vector<ErrorCode> first, second;
  for (auto* codes : {&first, &second}) {
    FaultInjectingStorage faulty(std::make_shared<MemStorage>(), spec);
    for (int i = 0; i < 100; ++i) {
      codes->push_back(faulty.write("k" + std::to_string(i), bytes_of("v")).code());
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::count(first.begin(), first.end(), ErrorCode::kTransient) > 0);
  EXPECT_TRUE(std::count(first.begin(), first.end(), ErrorCode::kOk) > 0);
}

TEST(FaultInjection, WriteErrorLeavesNothingBehind) {
  FaultSpec spec;
  spec.write_error_rate = 1.0;
  auto mem = std::make_shared<MemStorage>();
  FaultInjectingStorage faulty(mem, spec);
  const Status s = faulty.write("k", bytes_of("data"));
  EXPECT_EQ(s.code(), ErrorCode::kTransient);
  EXPECT_TRUE(s.retryable());
  EXPECT_FALSE(mem->exists("k"));
  EXPECT_EQ(faulty.fault_stats().write_errors, 1u);
}

TEST(FaultInjection, TornWriteLeavesPartialPrefix) {
  FaultSpec spec;
  spec.torn_write_rate = 1.0;
  auto mem = std::make_shared<MemStorage>();
  FaultInjectingStorage faulty(mem, spec);
  const auto payload = std::vector<std::byte>(64, std::byte{0xAB});
  EXPECT_EQ(faulty.write("k", payload).code(), ErrorCode::kTransient);
  auto landed = mem->read("k");
  ASSERT_TRUE(landed.has_value());
  EXPECT_LT(landed->size(), payload.size());
  EXPECT_TRUE(std::equal(landed->begin(), landed->end(), payload.begin()));
  EXPECT_EQ(faulty.fault_stats().torn_writes, 1u);
}

TEST(FaultInjection, BitFlipIsSilent) {
  FaultSpec spec;
  spec.bit_flip_rate = 1.0;
  auto mem = std::make_shared<MemStorage>();
  FaultInjectingStorage faulty(mem, spec);
  const auto payload = std::vector<std::byte>(32, std::byte{0});
  EXPECT_TRUE(faulty.write("k", payload).ok()) << "bit flips must look like success";
  const auto landed = *mem->read("k");
  ASSERT_EQ(landed.size(), payload.size());
  int bits_differing = 0;
  for (std::size_t i = 0; i < landed.size(); ++i) {
    bits_differing += std::popcount(std::to_integer<unsigned>(landed[i]));
  }
  EXPECT_EQ(bits_differing, 1);
  EXPECT_EQ(faulty.fault_stats().bit_flips, 1u);
}

TEST(FaultInjection, ReadErrorsAndDisarm) {
  FaultSpec spec;
  spec.read_error_rate = 1.0;
  auto mem = std::make_shared<MemStorage>();
  FaultInjectingStorage faulty(mem, spec);
  ASSERT_TRUE(faulty.write("k", bytes_of("v")).ok());
  EXPECT_EQ(faulty.read("k").status().code(), ErrorCode::kTransient);
  faulty.set_armed(false);  // recovery phase reads cleanly
  ASSERT_TRUE(faulty.read("k").has_value());
  EXPECT_EQ(*faulty.read("k"), bytes_of("v"));
}

TEST(FaultInjection, LatencySpikeStalls) {
  FaultSpec spec;
  spec.latency_spike_rate = 1.0;
  spec.latency_spike_sec = 0.02;
  FaultInjectingStorage faulty(std::make_shared<MemStorage>(), spec);
  Stopwatch sw;
  EXPECT_TRUE(faulty.write("k", bytes_of("v")).ok());
  EXPECT_GE(sw.elapsed_sec(), 0.015);
  EXPECT_EQ(faulty.fault_stats().latency_spikes, 1u);
}

// --- atomic commit ------------------------------------------------------------

TEST(AtomicCommit, CommittedRoundTrip) {
  MemStorage mem;
  Xoshiro256 rng(1);
  std::uint64_t retries = 0;
  ASSERT_TRUE(
      committed_write(mem, "ckpt", bytes_of("payload"), fast_policy(), rng, &retries)
          .ok());
  EXPECT_EQ(retries, 0u);
  EXPECT_TRUE(is_committed(mem, "ckpt"));
  auto back = committed_read(mem, "ckpt", fast_policy(), rng);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("payload"));
}

TEST(AtomicCommit, UncommittedDataIsInvisible) {
  MemStorage mem;
  Xoshiro256 rng(1);
  mem.write("ckpt", bytes_of("torn and never committed"));
  EXPECT_FALSE(is_committed(mem, "ckpt"));
  EXPECT_EQ(committed_read(mem, "ckpt", fast_policy(), rng).status().code(),
            ErrorCode::kNotFound);
}

TEST(AtomicCommit, TornDataDetectedByLength) {
  MemStorage mem;
  Xoshiro256 rng(1);
  ASSERT_TRUE(committed_write(mem, "ckpt", bytes_of("full payload"), fast_policy(),
                              rng)
                  .ok());
  mem.write("ckpt", bytes_of("full"));  // data later torn down to a prefix
  EXPECT_EQ(committed_read(mem, "ckpt", fast_policy(), rng).status().code(),
            ErrorCode::kCorrupted);
}

TEST(AtomicCommit, BitFlipDetectedByCrc) {
  MemStorage mem;
  Xoshiro256 rng(1);
  auto payload = bytes_of("bits will rot");
  ASSERT_TRUE(committed_write(mem, "ckpt", payload, fast_policy(), rng).ok());
  payload[5] ^= std::byte{0x10};
  mem.write("ckpt", payload);  // same length, one bit flipped
  EXPECT_EQ(committed_read(mem, "ckpt", fast_policy(), rng).status().code(),
            ErrorCode::kCorrupted);
}

TEST(AtomicCommit, CorruptMarkerDetected) {
  MemStorage mem;
  Xoshiro256 rng(1);
  ASSERT_TRUE(committed_write(mem, "ckpt", bytes_of("x"), fast_policy(), rng).ok());
  mem.write(commit_marker_key("ckpt"), bytes_of("garbage marker"));
  EXPECT_EQ(committed_read(mem, "ckpt", fast_policy(), rng).status().code(),
            ErrorCode::kCorrupted);
}

TEST(AtomicCommit, MarkerBitFlipAnywhereDetected) {
  // Nothing vouches for a marker, so its own frame CRC guards its payload
  // (the data length and CRC) and the header checks guard the rest.
  const auto marker = make_commit_marker(bytes_of("payload"));
  ASSERT_TRUE(parse_commit_marker(marker).ok());
  for (std::size_t pos = 0; pos < marker.size(); ++pos) {
    auto flipped = marker;
    flipped[pos] ^= std::byte{0x01};
    EXPECT_EQ(parse_commit_marker(flipped).status().code(), ErrorCode::kCorrupted)
        << "bit flip in marker byte " << pos << " was not detected";
  }
}

TEST(AtomicCommit, MarkerKeysRoundTrip) {
  EXPECT_EQ(commit_marker_key("full/3"), "commit/full/3");
  EXPECT_TRUE(is_commit_marker("commit/full/3"));
  EXPECT_FALSE(is_commit_marker("full/3"));
  EXPECT_EQ(data_key_of_marker("commit/full/3"), "full/3");
}

TEST(AtomicCommit, RetriesThroughInjectedTransients) {
  FaultSpec spec;
  spec.write_error_rate = 0.4;
  spec.seed = 11;
  FaultInjectingStorage faulty(std::make_shared<MemStorage>(), spec);
  Xoshiro256 rng(5);
  RetryPolicy policy = fast_policy();
  policy.max_attempts = 12;
  std::uint64_t retries = 0;
  const Status s = committed_write(faulty, "ckpt", bytes_of("persist me"), policy,
                                   rng, &retries);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_GT(retries, 0u);
  auto back = committed_read(faulty, "ckpt", policy, rng);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes_of("persist me"));
}

// --- async writer races -------------------------------------------------------

TEST(AsyncWriter, DefaultQueueIsBounded) {
  AsyncWriter writer(std::make_shared<MemStorage>());
  EXPECT_EQ(writer.max_pending(), AsyncWriter::kDefaultMaxPending);
  EXPECT_GT(writer.max_pending(), 0u) << "unbounded default is a foot-gun";
}

TEST(AsyncWriter, FlushDuringShutdownDoesNotHang) {
  auto mem = std::make_shared<MemStorage>();
  AsyncWriter writer(mem);
  std::atomic<std::uint64_t> accepted{0};
  std::thread submitter([&] {
    for (int i = 0; i < 200; ++i) {
      if (writer.submit("k" + std::to_string(i), bytes_of("x"))) {
        accepted.fetch_add(1);
      }
    }
  });
  std::thread flusher([&] {
    for (int i = 0; i < 50; ++i) writer.flush();
  });
  writer.shutdown();
  submitter.join();
  flusher.join();
  writer.flush();  // post-shutdown flush must return immediately
  EXPECT_EQ(writer.completed_jobs(), accepted.load());
  EXPECT_EQ(mem->list().size(), accepted.load());
}

TEST(AsyncWriter, SubmitAfterShutdownRace) {
  AsyncWriter writer(std::make_shared<MemStorage>());
  std::thread submitter([&] {
    for (int i = 0; i < 1000; ++i) {
      writer.submit("k" + std::to_string(i), bytes_of("x"));
    }
  });
  writer.shutdown();
  submitter.join();
  // Every accepted job completed; later submits were cleanly rejected.
  EXPECT_FALSE(writer.submit("late", bytes_of("x")));
  EXPECT_EQ(writer.failed_jobs(), 0u);
}

// --- canonical decorator stacking (storage/stacking.h) ----------------------
//
// The physical model is link-then-device: Throttled(FaultInjecting(Mem)).
// These tests pin the composition — reordering the decorators breaks them.

TEST(StorageStacking, TornWriteStillConsumesLinkBandwidth) {
  FaultSpec faults;
  faults.torn_write_rate = 1.0;
  auto stack =
      make_stacked_backend(LinkSpec{1e6, 0.0}, faults, /*time_scale=*/1e-9);
  const std::vector<std::byte> payload(50'000, std::byte{0xAB});

  EXPECT_FALSE(stack.root->write("full/0", payload).ok());
  EXPECT_EQ(stack.faults->fault_stats().torn_writes, 1u);
  // The bytes crossed the wire before the device tore them: full link
  // occupancy for the full object, even though only a prefix landed.
  EXPECT_NEAR(stack.root->busy_time(), 0.05, 1e-9);
  ASSERT_TRUE(stack.base->exists("full/0"));
  EXPECT_LT(stack.base->read("full/0")->size(), payload.size());
}

TEST(StorageStacking, LatencySpikeAddsToLinkTimeInsteadOfHidingInIt) {
  FaultSpec faults;
  faults.latency_spike_rate = 1.0;
  faults.latency_spike_sec = 20e-3;
  auto stack = make_stacked_backend(LinkSpec{1e9, 0.0}, faults, 1e-9);
  const std::vector<std::byte> payload(1024, std::byte{1});

  Stopwatch sw;
  ASSERT_TRUE(stack.root->write("k", payload).ok());
  // The device stall is real wall time *on top of* the link wait; stacked
  // the other way it would serialize before the token bucket and hide
  // inside the modeled occupancy.
  EXPECT_GE(sw.elapsed_sec(), 15e-3);
  EXPECT_EQ(stack.faults->fault_stats().latency_spikes, 1u);
  EXPECT_NEAR(stack.root->busy_time(), 1024 / 1e9, 1e-12);
}

TEST(StorageStacking, SilentBitFlipCaughtByCommittedRead) {
  FaultSpec faults;
  faults.bit_flip_rate = 1.0;
  auto stack = make_stacked_backend(LinkSpec{1e9, 0.0}, faults, 1e-9);
  const auto payload = bytes_of("synchronized gradient payload");

  // The device corrupts below the throttle but reports success...
  EXPECT_TRUE(stack.root->write("diff/1", payload).ok());
  EXPECT_EQ(stack.faults->fault_stats().bit_flips, 1u);
  // ...while the commit marker carries the CRC of the intended bytes
  // (set_armed stays reachable through the stack handles).
  stack.faults->set_armed(false);
  ASSERT_TRUE(stack.root
                  ->write(commit_marker_key("diff/1"),
                          make_commit_marker(payload))
                  .ok());

  Xoshiro256 rng(5);
  const auto read = committed_read(*stack.root, "diff/1", fast_policy(), rng);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kCorrupted);
}

TEST(StorageStacking, ReadPathChargesLinkOnlyForBytesReturned) {
  auto stack = make_stacked_backend(LinkSpec{1e6, 0.0}, {}, 1e-9);
  const std::vector<std::byte> payload(10'000, std::byte{7});
  ASSERT_TRUE(stack.root->write("full/0", payload).ok());
  const double after_write = stack.root->busy_time();
  EXPECT_NEAR(after_write, 0.01, 1e-9);

  // A successful read occupies the link for exactly the returned bytes —
  // the same transfer-time the recovery source-selection model charges.
  ASSERT_TRUE(stack.root->read("full/0").ok());
  EXPECT_NEAR(stack.root->busy_time() - after_write, 0.01, 1e-9);

  // Metadata operations and missing-key reads move no payload bytes.
  const double before_meta = stack.root->busy_time();
  EXPECT_TRUE(stack.root->exists("full/0"));
  EXPECT_FALSE(stack.root->exists("missing"));
  (void)stack.root->list();
  EXPECT_FALSE(stack.root->read("missing").ok());
  EXPECT_EQ(stack.root->busy_time(), before_meta);
}

TEST(StorageStacking, FailedReadCostsNoReadBandwidth) {
  FaultSpec faults;
  faults.read_error_rate = 1.0;
  auto stack = make_stacked_backend(LinkSpec{1e6, 0.0}, faults, 1e-9);
  stack.faults->set_armed(false);
  ASSERT_TRUE(
      stack.root->write("full/0", std::vector<std::byte>(4096, std::byte{1}))
          .ok());
  stack.faults->set_armed(true);

  const double before = stack.root->busy_time();
  const auto read = stack.root->read("full/0");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), ErrorCode::kTransient);
  // A clean device read error returns no bytes, so the link stays idle —
  // only possible with fault injection *below* the throttle.
  EXPECT_EQ(stack.root->busy_time(), before);
}

// --- group-committing writer over the canonical stack ------------------------
//
// The committed AsyncWriter must honor the same physical model the
// per-record protocol is tested against above: faults fire under the
// throttle, deadlines sit on top of both.  These cases pin the writer ×
// decorator composition on a backlogged writer — record 0's data write is
// held until the rest are queued, so the commit groups are {0} and
// {1..n−1}; the writer-only invariants live in test_persist_pipeline.cpp.

std::size_t stack_marker_count(const MemStorage& base) {
  std::size_t n = 0;
  for (const auto& key : base.list()) {
    if (is_commit_marker(key)) ++n;
  }
  return n;
}

using test_support::Records;

/// Commits `records` through a committed writer as the groups {0} and
/// {1..n−1}; returns each record's final status.
std::vector<Status> commit_backlog(std::shared_ptr<StorageBackend> backend,
                                   const Records& records, int attempts) {
  auto held =
      std::make_shared<test_support::HoldingStorage>(backend, records[0].first);
  AsyncWriter::Options opt = fast_retry_options();
  opt.retry.max_attempts = attempts;
  opt.committed = true;
  opt.max_pending = records.size();
  std::vector<Status> results(records.size());
  AsyncWriter writer(held, opt);
  EXPECT_TRUE(test_support::submit_backlog(
      writer, *held, records,
      [&results](std::size_t i, const Status& st) { results[i] = st; }));
  return results;
}

Records filled_records(int n, std::size_t bytes_each, std::byte fill) {
  Records records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back("rec/" + std::to_string(i),
                         std::vector<std::byte>(bytes_each, fill));
  }
  return records;
}

TEST(StorageStacking, PipelinedTornWritesChargeTheLinkAndCommitNothing) {
  FaultSpec faults;
  faults.torn_write_rate = 1.0;
  faults.seed = 41;
  auto stack = make_stacked_backend(LinkSpec{1e6, 0.0}, faults, 1e-9);
  set_log_level(LogLevel::kOff);  // every record legitimately logs its failure

  const auto results = commit_backlog(
      stack.root, filled_records(3, 10'000, std::byte{0xAB}), /*attempts=*/2);
  for (const auto& st : results) EXPECT_FALSE(st.ok());

  // Every attempt pushed the full object across the wire before the device
  // tore it: 3 records × 2 attempts × 10 ms of link occupancy, exactly as
  // the per-record path is charged.  No data landed, so no sync was issued.
  EXPECT_EQ(stack.faults->fault_stats().torn_writes, 6u);
  EXPECT_NEAR(stack.root->busy_time(), 0.06, 1e-9);
  // I3 through the stack: torn prefixes landed on the device but not one
  // marker did — the records are absent, never torn.
  ASSERT_TRUE(stack.base->exists("rec/0"));
  EXPECT_EQ(stack_marker_count(*stack.base), 0u);
  set_log_level(LogLevel::kWarn);
}

TEST(StorageStacking, PipelinedSyncDeadlineFailsTheGroupBeforeAnyMarker) {
  // Link with a slow, real-time sync (20 ms wall) under a 4 ms sync
  // deadline: every group sync times out while data writes sail through.
  auto stack =
      make_stacked_backend(LinkSpec{1e12, 0.0, 0.02}, {}, /*time_scale=*/1.0);
  DeadlineSpec deadlines;
  deadlines.sync_deadline_sec = 0.004;
  auto guarded = std::make_shared<DeadlineStorage>(stack.root, deadlines);
  set_log_level(LogLevel::kOff);

  // One attempt: a group sync is never retried anyway.
  const auto results = commit_backlog(
      guarded, filled_records(4, 512, std::byte{0x5A}), /*attempts=*/1);

  // Both group syncs converted to kTimeout; the data is on the device but
  // without a covering sync no record may surface a marker (I1/I3 under a
  // deadline, not just under injected faults).
  EXPECT_EQ(guarded->timeouts(), 2u);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& st : results) EXPECT_EQ(st.code(), ErrorCode::kTimeout);
  EXPECT_TRUE(stack.base->exists("rec/0"));
  EXPECT_EQ(stack_marker_count(*stack.base), 0u);
  set_log_level(LogLevel::kWarn);
}

TEST(StorageStacking, PipelinedBytesBitExactThroughTheFullStack) {
  // Per-record committed reference on a bare MemStorage...
  auto serial_mem = std::make_shared<MemStorage>();
  Xoshiro256 rng(9);
  Records records;
  Xoshiro256 fill(1234);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::byte> bytes(301 * (i + 1));
    for (auto& b : bytes) b = std::byte(fill() & 0xFF);
    records.emplace_back("rec/" + std::to_string(i), bytes);
  }
  for (const auto& [key, bytes] : records) {
    ASSERT_TRUE(committed_write(*serial_mem, key, bytes, fast_policy(), rng).ok());
  }

  // ...vs the group-committing writer pushing the same records through the
  // whole Deadline(Throttled(FaultInjecting(Mem))) stack with generous
  // limits.
  auto stack = make_stacked_backend(LinkSpec{1e9, 0.0}, {}, 1e-9);
  DeadlineSpec deadlines;
  deadlines.write_deadline_sec = 10.0;
  deadlines.sync_deadline_sec = 10.0;
  auto guarded = std::make_shared<DeadlineStorage>(stack.root, deadlines);
  for (const auto& st : commit_backlog(guarded, records, /*attempts=*/4)) {
    EXPECT_TRUE(st.ok()) << st.to_string();
  }

  // I4 survives the decorators: byte-identical artifacts, markers included.
  ASSERT_EQ(stack.base->list(), serial_mem->list());
  for (const auto& key : serial_mem->list()) {
    EXPECT_EQ(*stack.base->read(key), *serial_mem->read(key)) << key;
  }
  EXPECT_EQ(guarded->timeouts(), 0u);
}

TEST(AsyncWriter, CommittedModeWritesMarkers) {
  auto mem = std::make_shared<MemStorage>();
  AsyncWriter::Options opt = fast_retry_options();
  opt.committed = true;
  {
    AsyncWriter writer(mem, opt);
    writer.submit("full/0", bytes_of("state"));
    writer.flush();
  }
  EXPECT_TRUE(is_committed(*mem, "full/0"));
  Xoshiro256 rng(1);
  EXPECT_EQ(*committed_read(*mem, "full/0", fast_policy(), rng), bytes_of("state"));
}

}  // namespace
}  // namespace lowdiff
