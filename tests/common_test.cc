#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/counters.h"
#include "common/crc32.h"
#include "common/mpmc_queue.h"
#include "common/posix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace sgnn::common {
namespace {

TEST(CheckDeathTest, ComparisonFailurePrintsBothOperands) {
  const int lhs = 3;
  const int rhs = 7;
  // The upgraded SGNN_CHECK_EQ captures and prints the operand values, not
  // just the stringified expression.
  EXPECT_DEATH(SGNN_CHECK_EQ(lhs, rhs), "lhs == rhs.*3 vs. 7");
  EXPECT_DEATH(SGNN_CHECK_GT(lhs * 2, rhs), "lhs \\* 2 > rhs.*6 vs. 7");
}

TEST(CheckDeathTest, OperandsEvaluatedExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  SGNN_CHECK_LT(next(), 10);
  EXPECT_EQ(calls, 1);
}

TEST(CheckDeathTest, StringOperandsPrint) {
  const std::string a = "alpha";
  const std::string b = "beta";
  EXPECT_DEATH(SGNN_CHECK_EQ(a, b), "alpha vs. beta");
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

TEST(StatusTest, EveryCodeHasADistinctNonNullName) {
  // Keep in sync with the last StatusCode enumerator.
  constexpr auto kLast = StatusCode::kAborted;
  std::set<std::string> names;
  for (int c = 0; c <= static_cast<int>(kLast); ++c) {
    const char* name = StatusCodeName(static_cast<StatusCode>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "Unknown") << "code " << c;
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate name '" << name << "' for code " << c;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kLast) + 1);
}

Status FailsThenUnreachable(bool fail, bool* reached_end) {
  SGNN_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  *reached_end = true;
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroShortCircuits) {
  bool reached = false;
  Status s = FailsThenUnreachable(true, &reached);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(reached);
  s = FailsThenUnreachable(false, &reached);
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(reached);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(1 << 30) == b.UniformInt(1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Gaussian(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(13);
  for (uint64_t n : {10ULL, 100ULL, 1000ULL}) {
    for (uint64_t k : std::vector<uint64_t>{0, 1, 5, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<uint64_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (uint64_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementIsUniformish) {
  // Each element of [0,20) should appear in a 10-sample about half the time.
  std::vector<int> counts(20, 0);
  const int reps = 4000;
  Rng rng(17);
  for (int r = 0; r < reps; ++r) {
    for (uint64_t v : rng.SampleWithoutReplacement(20, 10)) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / reps, 0.5, 0.05);
  }
}

// Output i of a keyed stream is a pure function of (key, i): reading the
// outputs in any order, or through the cursor, gives the same values.
TEST(KeyedStreamTest, OutputsArePureInKeyAndCounter) {
  const KeyedStream stream(0x1234);
  std::vector<uint64_t> forward(64);
  for (uint64_t i = 0; i < forward.size(); ++i) forward[i] = stream.At(i);
  for (uint64_t i = forward.size(); i-- > 0;) {
    EXPECT_EQ(stream.At(i), forward[i]) << i;
  }
  KeyedStream cursor(0x1234);
  for (uint64_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(cursor.Next(), forward[i]) << i;
  }
  EXPECT_NE(KeyedStream(0x1235).At(0), forward[0]);
}

// Pins the stream's bits. Key 0 reproduces the published SplitMix64
// sequence seeded with 0.
TEST(KeyedStreamTest, GoldenOutputs) {
  const KeyedStream zero(0);
  EXPECT_EQ(zero.At(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(zero.At(1), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(zero.At(2), 0x06C45D188009454FULL);
  EXPECT_EQ(zero.At(3), 0xF88BB8A8724C81ECULL);
  const KeyedStream other(0x53474E4E);
  EXPECT_EQ(other.At(0), 0x3BDE9C9EEC521EF2ULL);
  EXPECT_EQ(other.At(1), 0x249DD683A5E86F00ULL);
  EXPECT_EQ(other.At(2), 0xF98AEA0AD3B09EB3ULL);
  EXPECT_EQ(other.At(3), 0xF4120E1018FACB29ULL);
}

TEST(KeyedStreamTest, BelowStaysInRange) {
  for (const uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                           (uint64_t{1} << 32) + 1, ~uint64_t{0}}) {
    KeyedStream stream(MixSeed(7, n));
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(stream.Below(n), n) << n;
    }
  }
}

// Chi-square goodness of fit at n = 10 over 10^5 draws: 9 degrees of
// freedom, 27.88 is the 0.999 quantile.
TEST(KeyedStreamTest, BelowIsUniform) {
  constexpr int kBins = 10;
  constexpr int kDraws = 100000;
  std::vector<int> counts(kBins, 0);
  KeyedStream stream(99);
  for (int i = 0; i < kDraws; ++i) ++counts[stream.Below(kBins)];
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.88);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(21);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) counts[rng.Categorical(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / trials, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.UniformInt(1 << 30) == child.UniformInt(1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(CountersTest, AcquireReleaseTracksPeak) {
  OpCounters c;
  c.Acquire(100);
  c.Acquire(50);
  EXPECT_EQ(c.peak_resident_floats, 150u);
  c.Release(120);
  EXPECT_EQ(c.resident_floats, 30u);
  c.Acquire(10);
  EXPECT_EQ(c.peak_resident_floats, 150u);  // Peak unchanged.
  c.Release(1000);                          // Over-release clamps to zero.
  EXPECT_EQ(c.resident_floats, 0u);
}

TEST(CountersTest, ScopedDeltaMeasuresOnlyScope) {
  GlobalCounters().Reset();
  GlobalCounters().edges_touched = 10;
  ScopedCounterDelta scope;
  GlobalCounters().edges_touched += 7;
  EXPECT_EQ(scope.Delta().edges_touched, 7u);
}

TEST(CountersTest, ToStringMentionsFields) {
  OpCounters c;
  c.edges_touched = 3;
  EXPECT_NE(c.ToString().find("edges_touched=3"), std::string::npos);
}

TEST(CountersTest, AggregateSumsAcrossThreads) {
  const OpCounters before = AggregateThreadCounters();
  const uint64_t kPerThread = 1000;
  const int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([kPerThread] {
      // Each thread increments its own thread-local instance.
      for (uint64_t i = 0; i < kPerThread; ++i) {
        GlobalCounters().edges_touched += 1;
        GlobalCounters().floats_moved += 2;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const OpCounters after = AggregateThreadCounters();
  // Joined threads retire their totals, so the delta is exact.
  EXPECT_EQ(after.edges_touched - before.edges_touched,
            kPerThread * kThreads);
  EXPECT_EQ(after.floats_moved - before.floats_moved,
            2 * kPerThread * kThreads);
}

TEST(CountersTest, ThreadsObservePrivateCounters) {
  const uint64_t main_edges = GlobalCounters().edges_touched;
  std::thread worker([] { GlobalCounters().edges_touched += 12345; });
  worker.join();
  // The worker's increments never show up in this thread's instance.
  EXPECT_EQ(GlobalCounters().edges_touched, main_edges);
}

TEST(MpmcQueueTest, RejectsWhenFullAcceptsAfterPop) {
  BoundedMpmcQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  Status full = queue.TryPush(3);
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  int out = 0;
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.TryPush(3).ok());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(MpmcQueueTest, CloseRejectsPushesButDrains) {
  BoundedMpmcQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(7).ok());
  queue.Close();
  EXPECT_EQ(queue.TryPush(8).code(), StatusCode::kFailedPrecondition);
  int out = 0;
  EXPECT_TRUE(queue.WaitPop(&out, std::chrono::milliseconds(10)));
  EXPECT_EQ(out, 7);
  // Closed and drained: WaitPop returns immediately, not after timeout.
  WallTimer timer;
  EXPECT_FALSE(queue.WaitPop(&out, std::chrono::seconds(10)));
  EXPECT_LT(timer.Seconds(), 5.0);
}

TEST(MpmcQueueTest, WaitPopTimesOutWhenEmpty) {
  BoundedMpmcQueue<int> queue(1);
  int out = 0;
  EXPECT_FALSE(queue.WaitPop(&out, std::chrono::milliseconds(5)));
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(4);
    for (int i = 1; i <= 100; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
  }  // Destructor drains the queue and joins cleanly.
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Shutdown();  // Must run everything already submitted.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ResizeDrainsAndRestartsWorkers) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 30; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Resize(5);
  // Resize drained the queue: everything submitted before it already ran.
  EXPECT_EQ(ran.load(), 30);
  EXPECT_EQ(pool.num_threads(), 5);
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Resize(5);  // Same size: a no-op.
  EXPECT_EQ(pool.num_threads(), 5);
  pool.Resize(1);  // Shrinking works too, and drains the same way.
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> more{0};
  pool.Submit([&more] { more.fetch_add(1); });
  pool.Shutdown();
  EXPECT_EQ(more.load(), 1);
}

TEST(TimerTest, MeasuresForwardTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // ms >= s numerically for t>0
}

// -------------------------------------------------------------------- crc32

// The bit-serial definition of the same CRC-32, one byte at a time: the
// value every shard file, manifest, frame and checkpoint already written
// carries, so the table kernel must reproduce it exactly.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t n, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= bytes[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> CrcTestBytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(SplitMix64(i));
  }
  return bytes;
}

TEST(Crc32Test, CheckValueAndEmptyInput) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLength = 1100;
  const std::vector<unsigned char> bytes = CrcTestBytes(kMaxLength + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = bytes.data() + offset;
    for (size_t n = 0; n <= kMaxLength; ++n) {
      ASSERT_EQ(Crc32(p, n), BytewiseCrc32(p, n, 0))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32Test, IncrementalEqualsWholeAtEverySplit) {
  const std::vector<unsigned char> bytes = CrcTestBytes(1100);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split,
                    Crc32(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

// ------------------------------------------------------------ posix helpers

TEST(PosixStatusTest, ErrnoValuesMapOntoTheStatusTaxonomy) {
  EXPECT_EQ(StatusFromErrno("x", EPIPE).code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ECONNRESET).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno("x", ENOENT).code(), StatusCode::kNotFound);
  EXPECT_EQ(StatusFromErrno("x", ETIMEDOUT).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(StatusFromErrno("x", ENOSPC).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno("x", EMFILE).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno("x", EACCES).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromErrno("x", EINVAL).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StatusFromErrno("x", EIO).code(), StatusCode::kIOError);
  const Status s = StatusFromErrno("opening /tmp/zzz", ENOENT);
  EXPECT_NE(s.ToString().find("opening /tmp/zzz"), std::string::npos);
}

TEST(PosixStatusTest, OverloadReadsTheCallingThreadsErrno) {
  errno = EPIPE;
  EXPECT_EQ(StatusFromErrno("send").code(), StatusCode::kUnavailable);
}

TEST(PosixIoTest, WriteFullThenReadFullRoundTrips) {
  // tmpfile()/fileno() keeps the test inside the stdio wrappers the
  // determinism lint allows tree-wide (raw open()/pipe() are confined).
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  std::string data(70'000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 % 251);
  }
  ASSERT_TRUE(WriteFull(fd, data.data(), data.size()).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  std::string got(data.size(), '\0');
  size_t bytes_read = 0;
  ASSERT_TRUE(ReadFull(fd, got.data(), got.size(), Deadline::Infinite(),
                       &bytes_read).ok());
  EXPECT_EQ(bytes_read, data.size());
  EXPECT_EQ(got, data);
  std::fclose(f);
}

TEST(PosixIoTest, GatheringWriteRoundTripsAroundAnEmptyBuffer) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  std::string data(70'000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 % 251);
  }
  const ConstBuffer bufs[] = {{data.data(), data.size()}, {nullptr, 0}};
  ASSERT_TRUE(WriteFullV(fd, bufs).ok());
  const ConstBuffer flipped[] = {{nullptr, 0}, {data.data(), data.size()}};
  ASSERT_TRUE(WriteFullV(fd, flipped).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  std::string got(2 * data.size(), '\0');
  ASSERT_TRUE(ReadFull(fd, got.data(), got.size(), Deadline::Infinite()).ok());
  EXPECT_EQ(got, data + data);
  char extra = 0;
  EXPECT_EQ(ReadFull(fd, &extra, 1, Deadline::Infinite()).code(),
            StatusCode::kDataLoss);
  std::fclose(f);
}

TEST(PosixIoTest, ShortStreamIsDataLossWithByteAccounting) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  const char payload[10] = "123456789";
  ASSERT_TRUE(WriteFull(fd, payload, 10).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  char buf[16];
  size_t bytes_read = 0;
  const Status s =
      ReadFull(fd, buf, sizeof(buf), Deadline::Infinite(), &bytes_read);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bytes_read, 10u);  // The framing layer sees a *torn* frame.
  EXPECT_NE(s.ToString().find("10/16"), std::string::npos) << s.ToString();
  std::fclose(f);
}

TEST(PosixIoTest, CleanEofReadsZeroBytes) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  char buf[8];
  size_t bytes_read = 99;
  const Status s = ReadFull(fileno(f), buf, sizeof(buf),
                            Deadline::Infinite(), &bytes_read);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(bytes_read, 0u);  // A peer that closed *between* frames.
  std::fclose(f);
}

// A finite deadline puts a poll before each read; one that has expired
// stops the read before it consumes a byte.
TEST(PosixIoTest, DeadlineBoundsTheRead) {
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  const int fd = fileno(f);
  ASSERT_TRUE(WriteFull(fd, "abcd", 4).ok());
  ASSERT_EQ(lseek(fd, 0, SEEK_SET), 0);
  char buf[4];
  size_t bytes_read = 99;
  const Status s = ReadFull(fd, buf, sizeof(buf), Deadline::After(0),
                            &bytes_read);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(bytes_read, 0u);
  ASSERT_TRUE(ReadFull(fd, buf, sizeof(buf), Deadline::After(60'000'000),
                       &bytes_read)
                  .ok());
  EXPECT_EQ(bytes_read, 4u);
  EXPECT_EQ(std::string(buf, 4), "abcd");
  std::fclose(f);
}

TEST(PosixIoTest, BadDescriptorMapsThroughErrno) {
  char buf[4] = {0};
  EXPECT_EQ(ReadFull(-1, buf, sizeof(buf), Deadline::Infinite()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteFull(-1, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  const ConstBuffer bufs[] = {{nullptr, 0}, {buf, sizeof(buf)}};
  EXPECT_EQ(WriteFullV(-1, bufs).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sgnn::common
