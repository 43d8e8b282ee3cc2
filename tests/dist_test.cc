#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/posix.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/distributed_sim.h"
#include "core/run_context.h"
#include "dist/coordinator.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "dist/worker.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "partition/partition.h"
#include "tensor/matrix.h"

namespace sgnn::dist {
namespace {

using common::FaultInjector;
using common::StatusCode;
using graph::CsrGraph;
using graph::NodeId;
using partition::Partition;
using tensor::Matrix;

CsrGraph TestGraph() { return graph::ErdosRenyi(180, 900, 17); }

Matrix TestFeatures(const CsrGraph& g, int64_t cols = 8) {
  common::Rng rng(23);
  return Matrix::Gaussian(g.num_nodes(), cols, 0.0f, 1.0f, &rng);
}

Matrix Reference(const CsrGraph& g, const Matrix& x, const DistOptions& opts) {
  graph::Propagator prop(g, opts.norm, opts.add_self_loops);
  return graph::PropagateKHops(prop, x, opts.hops);
}

std::string TempCheckpointPath(const char* tag) {
  return testing::TempDir() + "/dist_ckpt_" + tag + ".bin";
}

TEST(KillTokenTest, DistinguishesWorkerEpochAndIncarnation) {
  EXPECT_NE(KillToken(0, 0, 0), KillToken(1, 0, 0));
  EXPECT_NE(KillToken(0, 0, 0), KillToken(0, 1, 0));
  EXPECT_NE(KillToken(0, 0, 0), KillToken(0, 0, 1));
  // The token CI arms in its kill schedule: worker 1, epoch 1, first spawn.
  EXPECT_EQ(KillToken(1, 1, 0), 65537u);
}

TEST(WorkerSpecTest, SerializeParseRoundTrip) {
  WorkerSpec spec;
  spec.worker_id = 2;
  spec.num_workers = 4;
  spec.incarnation = 3;
  spec.cols = 5;
  spec.owned = {10, 12, 19};
  spec.halo = {3, 40};
  spec.offsets = {0, 2, 2, 4};
  spec.slots = {3, 1, 4, 0};  // Nodes 3, 12, 40 and 10.
  spec.coefficients = {0.5f, 0.25f, 0.125f, 1.0f};
  spec.self_loop = {0.1f, 0.2f, 0.3f};
  auto parsed_or = WorkerSpec::Parse(spec.Serialize());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status().ToString();
  const WorkerSpec& parsed = parsed_or.value();
  EXPECT_EQ(parsed.worker_id, 2);
  EXPECT_EQ(parsed.incarnation, 3);
  EXPECT_EQ(parsed.owned, spec.owned);
  EXPECT_EQ(parsed.halo, spec.halo);
  EXPECT_EQ(parsed.offsets, spec.offsets);
  EXPECT_EQ(parsed.slots, spec.slots);
  EXPECT_EQ(parsed.coefficients, spec.coefficients);
  EXPECT_EQ(parsed.self_loop, spec.self_loop);
}

TEST(WorkerSpecTest, EveryTruncationIsDataLossNeverUB) {
  WorkerSpec spec;
  spec.worker_id = 0;
  spec.num_workers = 2;
  spec.cols = 3;
  spec.owned = {0, 1};
  spec.halo = {5};
  spec.offsets = {0, 1, 2};
  spec.slots = {2, 0};
  spec.coefficients = {0.5f, 0.5f};
  spec.self_loop = {1.0f, 1.0f};
  const std::string full = spec.Serialize();
  ASSERT_TRUE(WorkerSpec::Parse(full).ok());
  for (size_t keep = 0; keep < full.size(); ++keep) {
    auto parsed_or = WorkerSpec::Parse(full.substr(0, keep));
    ASSERT_FALSE(parsed_or.ok()) << "accepted a " << keep << "-byte prefix";
    EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
  }
}

// A vector count whose byte size wraps 64 bits fails the length check
// instead of sizing an allocation.
TEST(WorkerSpecTest, OverflowingVectorCountIsDataLoss) {
  WorkerSpec spec;
  spec.num_workers = 1;
  spec.offsets = {0};
  std::string bytes = spec.Serialize();
  const uint64_t huge = uint64_t{1} << 62;  // * sizeof(NodeId) wraps to 0.
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));  // The `owned` count.
  auto parsed_or = WorkerSpec::Parse(bytes);
  ASSERT_FALSE(parsed_or.ok());
  EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
}

// A spec whose owned or whose halo rows could not travel in one row-batch
// frame did not come from the coordinator. With 2^40 cols, WorkerMain
// would size (owned + halo) x cols floats from it. At 255 cols a record
// is 1 KiB, so 2^20 - 1 halo rows is the most one frame carries.
TEST(WorkerSpecTest, RowsWiderThanOneFrameAreDataLoss) {
  WorkerSpec wide;
  wide.num_workers = 1;
  wide.cols = int64_t{1} << 40;
  wide.owned = {0};
  wide.offsets = {0, 0};
  wide.self_loop = {1.0f};
  auto parsed_or = WorkerSpec::Parse(wide.Serialize());
  ASSERT_FALSE(parsed_or.ok());
  EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);

  WorkerSpec spec;
  spec.num_workers = 1;
  spec.cols = 255;
  spec.offsets = {0};
  for (NodeId id = 0; id + 1 < (NodeId{1} << 20); ++id) spec.halo.push_back(id);
  ASSERT_TRUE(WorkerSpec::Parse(spec.Serialize()).ok());
  spec.halo.push_back(spec.halo.back() + 1);
  parsed_or = WorkerSpec::Parse(spec.Serialize());
  ASSERT_FALSE(parsed_or.ok());
  EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
}

// Config-time rejection of specs an epoch would otherwise trip over: CSR
// offsets that do not start at 0 or decrease (reads past the coefficient
// array), owned/halo lists that are unsorted, repeat, share an id or name
// kInvalidNode, and a slot past the owned + halo rows (a neighbour the
// worker holds no row for) all fail the parse, before any epoch runs.
TEST(WorkerSpecTest, BadOffsetsAndUnknownNeighborsAreDataLossAtConfig) {
  WorkerSpec spec;
  spec.num_workers = 1;
  spec.cols = 2;
  spec.owned = {0, 1};
  spec.halo = {7};
  spec.offsets = {0, 1, 2};
  spec.slots = {2, 0};
  spec.coefficients = {0.5f, 0.5f};
  spec.self_loop = {1.0f, 1.0f};
  ASSERT_TRUE(WorkerSpec::Parse(spec.Serialize()).ok());

  for (const std::vector<graph::EdgeIndex>& offsets :
       {std::vector<graph::EdgeIndex>{0, 5, 2},
        std::vector<graph::EdgeIndex>{1, 1, 2}}) {
    WorkerSpec bad = spec;
    bad.offsets = offsets;
    auto parsed_or = WorkerSpec::Parse(bad.Serialize());
    ASSERT_FALSE(parsed_or.ok()) << "offsets[1]=" << offsets[1];
    EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
  }

  using Ids = std::vector<NodeId>;
  const NodeId kInvalid = graph::kInvalidNode;
  const std::vector<std::pair<Ids, Ids>> bad_lists = {
      {{1, 0}, {7}},        {{0, 0}, {7}},       {{0, 1}, {9, 7}},
      {{0, 1}, {7, 7}},     {{0, 1}, {1}},       {{0, 7}, {7}},
      {{0, 1}, {kInvalid}}, {{0, kInvalid}, {7}}};
  for (size_t i = 0; i < bad_lists.size(); ++i) {
    WorkerSpec bad = spec;
    bad.owned = bad_lists[i].first;
    bad.halo = bad_lists[i].second;
    auto parsed_or = WorkerSpec::Parse(bad.Serialize());
    ASSERT_FALSE(parsed_or.ok()) << "owned/halo case " << i;
    EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
  }

  // Slot 2, the last halo row, is the largest legal one.
  for (const NodeId slot : {NodeId{3}, NodeId{4}, kInvalid}) {
    WorkerSpec stranger = spec;
    stranger.slots = {2, slot};
    auto parsed_or = WorkerSpec::Parse(stranger.Serialize());
    ASSERT_FALSE(parsed_or.ok()) << "slot " << slot;
    EXPECT_EQ(parsed_or.status().code(), StatusCode::kDataLoss);
  }
}

TEST(HaloPlanTest, MatchesSimulatedCommunicationVolume) {
  const CsrGraph g = TestGraph();
  const Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
  const HaloPlan plan = BuildHaloPlan(g, parts);
  const auto sim = core::SimulateDistributedEpoch(
      g, parts, /*feature_dim=*/16, core::DistributedCostModel{});
  ASSERT_EQ(sim.workers.size(), plan.need.size());
  int64_t sim_halo_values = 0;
  for (const auto& w : sim.workers) sim_halo_values += w.halo_values;
  EXPECT_EQ(plan.halo_values(16), sim_halo_values);
  // Every node is owned exactly once, need lists are sorted remote ids.
  size_t owned_total = 0;
  for (int w = 0; w < plan.num_workers; ++w) {
    owned_total += plan.owned[w].size();
    for (const auto v : plan.need[w]) {
      EXPECT_NE(parts.part_of[v], w);
    }
    EXPECT_TRUE(std::is_sorted(plan.need[w].begin(), plan.need[w].end()));
  }
  EXPECT_EQ(owned_total, static_cast<size_t>(g.num_nodes()));
}

// need[w] is exactly the set of w's remote neighbours, ascending, and
// owned[w] the ascending ids w owns, at every worker count, on a graph with
// isolated nodes and with a worker that owns nothing.
TEST(HaloPlanTest, NeedIsTheSetOfRemoteNeighborsAtEveryWorkerCount) {
  const CsrGraph g = graph::ErdosRenyi(300, 400, 5);
  bool isolated = false;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    isolated = isolated || g.OutDegree(u) == 0;
  }
  ASSERT_TRUE(isolated);
  for (const int k : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    Partition parts = partition::LdgPartition(g, k, 1.05, 31);
    // The last worker's nodes move to worker 0, so it owns nothing.
    for (int& p : parts.part_of) {
      if (k > 1 && p == k - 1) p = 0;
    }
    const HaloPlan plan = BuildHaloPlan(g, parts);
    ASSERT_EQ(plan.owned.size(), static_cast<size_t>(k));
    ASSERT_EQ(plan.need.size(), static_cast<size_t>(k));
    for (int w = 0; w < k; ++w) {
      std::vector<NodeId> owned;
      std::set<NodeId> need;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (parts.part_of[u] != w) continue;
        owned.push_back(u);
        for (const NodeId v : g.Neighbors(u)) {
          if (parts.part_of[v] != w) need.insert(v);
        }
      }
      EXPECT_EQ(plan.owned[w], owned) << "worker " << w;
      EXPECT_EQ(plan.need[w], std::vector<NodeId>(need.begin(), need.end()))
          << "worker " << w;
    }
    if (k > 1) {
      EXPECT_TRUE(plan.owned[k - 1].empty());
    }
  }
}

// An 8 MiB frame through a socket pair with a concurrent reader. The
// writer's end is non-blocking, so writev returns short as soon as the
// socket buffer fills and the gathering write must resume mid-payload.
TEST(FrameTest, LargeAndEmptyPayloadsRoundTripOverASocketPair) {
  int sv[2];
  // sgnn-lint: allow(det/process-syscall): a connected stream pair is the
  // frame layer's transport, and the test needs both of its ends.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL) | O_NONBLOCK), 0);
  std::string big(size_t{8} << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(common::SplitMix64(i));
  }
  const common::Deadline deadline = common::Deadline::After(60'000'000);
  const Frame sent{FrameType::kRows, 7, big};
  Frame got;
  WireStats read_stats;
  common::Status read_status;
  std::thread reader([&] {
    read_status = ReadFrame(sv[1], &got, deadline, &read_stats);
  });
  WireStats write_stats;
  const common::Status write_status = WriteFrame(sv[0], sent, &write_stats);
  if (!write_status.ok()) ::close(sv[0]);  // The reader then sees EOF.
  reader.join();
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_EQ(got.type, FrameType::kRows);
  EXPECT_EQ(got.epoch, 7u);
  EXPECT_TRUE(got.payload == big);
  EXPECT_EQ(write_stats.frames, 1u);
  EXPECT_EQ(write_stats.bytes, kFrameHeaderBytes + big.size());
  EXPECT_EQ(read_stats.bytes, kFrameHeaderBytes + big.size());

  const Frame go{FrameType::kGo, 3, ""};
  WireStats empty_stats;
  ASSERT_TRUE(WriteFrame(sv[0], go, &empty_stats).ok());
  ASSERT_TRUE(ReadFrame(sv[1], &got, deadline).ok());
  EXPECT_EQ(got.type, FrameType::kGo);
  EXPECT_EQ(got.epoch, 3u);
  EXPECT_TRUE(got.payload.empty());
  EXPECT_EQ(empty_stats.bytes, kFrameHeaderBytes);
  ::close(sv[0]);
  ::close(sv[1]);
}

// The three ways a frame read fails, which the coordinator and the worker
// act on differently: a silent peer runs out the deadline, a peer that
// closes between frames is retryable, and one that closes inside a header
// has torn the frame.
TEST(FrameTest, SilentClosedAndTornPeersAreToldApart) {
  int torn[2];
  int closed[2];
  // sgnn-lint: allow(det/process-syscall): a connected stream pair is the
  // frame layer's transport, and the test closes one end mid-frame.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, torn), 0);
  // sgnn-lint: allow(det/process-syscall): as above, closed between frames.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, closed), 0);
  Frame got;
  EXPECT_EQ(ReadFrame(torn[1], &got, common::Deadline::After(20'000)).code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(common::WriteFull(torn[0], "SDF", 3).ok());
  ::close(torn[0]);
  EXPECT_EQ(ReadFrame(torn[1], &got, common::Deadline::After(60'000'000))
                .code(),
            StatusCode::kDataLoss);
  ::close(closed[0]);
  EXPECT_EQ(ReadFrame(closed[1], &got, common::Deadline::After(60'000'000))
                .code(),
            StatusCode::kUnavailable);
  ::close(torn[1]);
  ::close(closed[1]);
}

/// What a forked `WorkerMain` answered: the type of each frame it sent
/// before closing its end, the (node, value) records of its one-column
/// gather frames, and its exit code.
struct WorkerAnswers {
  std::vector<FrameType> types;
  std::vector<std::pair<NodeId, float>> rows;
  int exit_code = -1;
};

/// Writes `frames` into a socket pair before forking `WorkerMain` on its
/// other end — so the test never writes to a worker that may already have
/// exited — then reads the worker's answers until it closes the stream.
WorkerAnswers RunWorker(const std::vector<Frame>& frames) {
  WorkerAnswers answers;
  int sv[2];
  // sgnn-lint: allow(det/process-syscall): the worker loop speaks the frame
  // protocol over one end of a stream pair, and the test holds the other.
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return answers;
  }
  for (const Frame& frame : frames) {
    EXPECT_TRUE(WriteFrame(sv[0], frame).ok());
  }
  // sgnn-lint: allow(det/process-syscall): WorkerMain runs only as a forked
  // child, which it ends with _exit.
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(sv[0]);
    WorkerMain(sv[1], nullptr);
  }
  ::close(sv[1]);
  if (pid < 0) {
    ::close(sv[0]);
    ADD_FAILURE() << "fork failed";
    return answers;
  }
  Frame frame;
  while (ReadFrame(sv[0], &frame, common::Deadline::After(60'000'000)).ok()) {
    answers.types.push_back(frame.type);
    if (frame.type != FrameType::kRows) continue;
    EXPECT_TRUE(DecodeRows(frame.payload, 1,
                           [&answers](NodeId id, const float* row) {
                             answers.rows.emplace_back(id, row[0]);
                             return common::Status::OK();
                           })
                    .ok());
  }
  ::close(sv[0]);
  int wstatus = 0;
  // sgnn-lint: allow(det/process-syscall): reaps the worker forked above.
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  answers.exit_code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  return answers;
}

/// A one-column row batch of `ids` with the values `values`.
std::string OneColumnRows(const std::vector<NodeId>& ids,
                          const std::vector<float>& values) {
  return EncodeRows(ids, 1, [&values](size_t i) { return &values[i]; });
}

// The worker stores each received record in the value-store row its
// position names, so a record out of place must stop it before it answers:
// a scatter with its two records swapped, or one short of the owned rows,
// ends the worker with exit code 2 and no frame sent. In order, the same
// frames give the two rows the spec's slots read.
TEST(WorkerMainTest, ScatterRecordsOutOfPlaceAreRefusedBeforeAnswering) {
  WorkerSpec spec;
  spec.num_workers = 1;
  spec.cols = 1;
  spec.owned = {3, 5};
  spec.halo = {4};
  spec.offsets = {0, 1, 3};
  spec.slots = {2, 0, 2};  // 3 <- 4; 5 <- 3, 4.
  spec.coefficients = {1.0f, 1.0f, 1.0f};
  spec.self_loop = {0.5f, 0.25f};
  auto frames_with = [&spec](std::string scatter) {
    return std::vector<Frame>{
        {FrameType::kConfig, 0, spec.Serialize()},
        {FrameType::kRows, 0, std::move(scatter)},
        {FrameType::kHalo, 0, OneColumnRows({4}, {4.0f})},
        {FrameType::kGo, 0, ""},
        {FrameType::kShutdown, 0, ""}};
  };

  const WorkerAnswers in_order =
      RunWorker(frames_with(OneColumnRows({3, 5}, {1.0f, 2.0f})));
  EXPECT_EQ(in_order.exit_code, 0);
  EXPECT_EQ(in_order.types,
            (std::vector<FrameType>{FrameType::kRows, FrameType::kEpochDone}));
  // 0.5 * 1 + 4 and 0.25 * 2 + 1 + 4.
  EXPECT_EQ(in_order.rows, (std::vector<std::pair<NodeId, float>>{
                               {3, 4.5f}, {5, 5.5f}}));

  for (const std::string& scatter :
       {OneColumnRows({5, 3}, {2.0f, 1.0f}), OneColumnRows({3}, {1.0f})}) {
    const WorkerAnswers refused = RunWorker(frames_with(scatter));
    EXPECT_EQ(refused.exit_code, 2);
    EXPECT_TRUE(refused.types.empty());
  }
}

// The halo rows go after the owned rows in `spec.halo` order, so a halo
// batch with two records swapped, one short or one over is refused the
// same way. In order, the slots past the owned rows read the halo values.
TEST(WorkerMainTest, HaloRecordsOutOfPlaceAreRefusedBeforeAnswering) {
  WorkerSpec spec;
  spec.num_workers = 1;
  spec.cols = 1;
  spec.owned = {3, 5};
  spec.halo = {4, 6};
  spec.offsets = {0, 1, 3};
  spec.slots = {3, 0, 2};  // 3 <- 6; 5 <- 3, 4.
  spec.coefficients = {1.0f, 1.0f, 1.0f};
  spec.self_loop = {0.5f, 0.25f};
  auto frames_with = [&spec](std::string halo) {
    return std::vector<Frame>{
        {FrameType::kConfig, 0, spec.Serialize()},
        {FrameType::kRows, 0, OneColumnRows({3, 5}, {1.0f, 2.0f})},
        {FrameType::kHalo, 0, std::move(halo)},
        {FrameType::kGo, 0, ""},
        {FrameType::kShutdown, 0, ""}};
  };

  const WorkerAnswers in_order =
      RunWorker(frames_with(OneColumnRows({4, 6}, {4.0f, 8.0f})));
  EXPECT_EQ(in_order.exit_code, 0);
  EXPECT_EQ(in_order.types,
            (std::vector<FrameType>{FrameType::kRows, FrameType::kEpochDone}));
  // 0.5 * 1 + 8 and 0.25 * 2 + 1 + 4.
  EXPECT_EQ(in_order.rows, (std::vector<std::pair<NodeId, float>>{
                               {3, 8.5f}, {5, 5.5f}}));

  for (const std::string& halo :
       {OneColumnRows({6, 4}, {8.0f, 4.0f}), OneColumnRows({4}, {4.0f}),
        OneColumnRows({4, 6, 7}, {4.0f, 8.0f, 1.0f})}) {
    const WorkerAnswers refused = RunWorker(frames_with(halo));
    EXPECT_EQ(refused.exit_code, 2);
    EXPECT_TRUE(refused.types.empty());
  }
}

// The headline contract: the distributed result is bit-identical to the
// single-process Propagator at any worker count. `ctx.faults` is left
// null on purpose — when CI runs this binary under an SGNN_FAULTS kill
// schedule, the same assertions prove recovery restores bit-identity.
TEST(DistRunTest, BitIdenticalToSingleProcessAcrossWorkerCounts) {
  const CsrGraph g = TestGraph();
  DistOptions opts;
  opts.hops = 3;
  // A 160-column row is two full 64-float register strips and a half one.
  for (const int64_t cols : {8, 160}) {
    const Matrix x = TestFeatures(g, cols);
    const Matrix want = Reference(g, x, opts);
    for (const int k : {1, 2, 4}) {
      const Partition parts = partition::LdgPartition(g, k, 1.05, 31);
      core::RunContext ctx;
      DistReport report;
      auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
      ASSERT_TRUE(got_or.ok())
          << "k=" << k << ": " << got_or.status().ToString();
      EXPECT_TRUE(got_or.value().Equals(want)) << "k=" << k << " cols=" << cols;
      EXPECT_EQ(report.num_workers, k);
      EXPECT_EQ(report.epochs_run, opts.hops);
    }
  }
}

TEST(DistRunTest, ZeroHopsReturnsInputUnchanged) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 0;
  FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(x));
}

TEST(DistRunTest, WorkersOwningNothingAreHarmless) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  // All nodes on worker 0; workers 1 and 2 are spawned, configured, and
  // report zero-row epochs.
  Partition parts{std::vector<int>(static_cast<size_t>(g.num_nodes()), 0), 3};
  FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
}

TEST(DistRunTest, MeasuredHaloBytesWithinTenPercentOfSimulatedVolume) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g, /*cols=*/64);
  DistOptions opts;
  opts.hops = 2;
  const Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
  FaultInjector no_faults;  // A respawn would legitimately resend halo rows.
  core::RunContext ctx;
  ctx.faults = &no_faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  const auto sim = core::SimulateDistributedEpoch(
      g, parts, /*feature_dim=*/64, core::DistributedCostModel{});
  int64_t sim_halo_values = 0;
  for (const auto& w : sim.workers) sim_halo_values += w.halo_values;
  ASSERT_GT(sim_halo_values, 0);
  const double simulated_bytes =
      static_cast<double>(sim_halo_values) * sizeof(float) * opts.hops;
  const double measured = static_cast<double>(report.halo_bytes);
  // Real wire bytes carry frame headers and row ids on top of the raw
  // float volume the simulator models; at dim 64 that overhead is small.
  EXPECT_GE(measured, simulated_bytes);
  EXPECT_LE(measured, 1.10 * simulated_bytes);
  EXPECT_EQ(report.halo_values_per_epoch, sim_halo_values);
}

TEST(DistRunTest, KilledWorkerIsRespawnedAndResultStaysBitIdentical) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 3;
  const Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
  FaultInjector faults;
  // Kill worker 1 mid-epoch-1, first incarnation only: the respawn draws a
  // fresh token and completes.
  faults.ArmAt(kSiteWorkerKill, static_cast<int64_t>(KillToken(1, 1, 0)));
  core::RunContext ctx;
  ctx.faults = &faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
  EXPECT_GE(report.respawns, 1);
}

// A worker that sends one owned row twice and skips another still ships
// as many rows as it owns; the gather must notice the order break, respawn
// it, and end bit-identical instead of leaving the skipped row at +0.
TEST(DistRunTest, RepeatedRowIsDetectedAndRecovered) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  const Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
  FaultInjector faults;
  faults.ArmAt(kSiteWorkerRepeatRow, static_cast<int64_t>(KillToken(2, 1, 0)));
  core::RunContext ctx;
  ctx.faults = &faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
  EXPECT_EQ(report.respawns, 1);
}

TEST(DistRunTest, CorruptFrameIsDetectedAndRecovered) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  FaultInjector faults;
  // Worker 0's epoch-0 sends (first incarnation) all flip one payload byte
  // after the CRC is computed; the coordinator must detect kDataLoss on
  // the gather and respawn rather than ingest a poisoned row.
  faults.ArmAt(kSiteFrameCorrupt, static_cast<int64_t>(KillToken(0, 0, 0)));
  core::RunContext ctx;
  ctx.faults = &faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
  EXPECT_GE(report.respawns, 1);
}

TEST(DistRunTest, TruncatedFrameIsDetectedAndRecovered) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  FaultInjector faults;
  faults.ArmAt(kSiteFrameTruncate, static_cast<int64_t>(KillToken(1, 0, 0)));
  core::RunContext ctx;
  ctx.faults = &faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
  EXPECT_GE(report.respawns, 1);
}

TEST(DistRunTest, ProbabilisticKillScheduleStillConverges) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 3;
  opts.retry.max_attempts = 8;
  opts.retry.base_backoff_micros = 10;
  opts.retry.max_backoff_micros = 200;
  opts.breaker.failure_threshold = 50;
  const Partition parts = partition::LdgPartition(g, 4, 1.05, 31);
  // Each (worker, epoch, incarnation) draws an independent 25% kill
  // verdict — a pure hash of the seed and token, so the whole multi-kill
  // schedule replays identically on every run.
  FaultInjector faults(0xd15f);
  faults.Arm(kSiteWorkerKill, 0.25);
  core::RunContext ctx;
  ctx.faults = &faults;
  DistReport report;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(got_or.ok()) << got_or.status().ToString();
  EXPECT_TRUE(got_or.value().Equals(Reference(g, x, opts)));
  EXPECT_GE(report.respawns, 1);
}

TEST(DistRunTest, RespawnBudgetExhaustionFailsWithUnavailable) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  opts.retry.max_attempts = 3;
  opts.retry.base_backoff_micros = 10;
  opts.retry.max_backoff_micros = 100;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  FaultInjector faults;
  faults.Arm(kSiteWorkerKill, 1.0);  // Every incarnation of every worker dies.
  core::RunContext ctx;
  ctx.faults = &faults;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx);
  ASSERT_FALSE(got_or.ok());
  EXPECT_EQ(got_or.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got_or.status().ToString().find("respawn budget"),
            std::string::npos)
      << got_or.status().ToString();
}

TEST(DistRunTest, BreakerOpensAfterConsecutiveCrashesInsteadOfHanging) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  // A huge per-worker budget: without the breaker this schedule would
  // respawn ~100 times before failing.
  opts.retry.max_attempts = 100;
  opts.retry.base_backoff_micros = 10;
  opts.retry.max_backoff_micros = 100;
  opts.breaker.failure_threshold = 5;
  opts.breaker.probe_interval = 1000;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  FaultInjector faults;
  faults.Arm(kSiteWorkerKill, 1.0);
  core::RunContext ctx;
  ctx.faults = &faults;
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx);
  ASSERT_FALSE(got_or.ok());
  EXPECT_EQ(got_or.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got_or.status().ToString().find("circuit breaker"),
            std::string::npos)
      << got_or.status().ToString();
}

TEST(DistRunTest, CheckpointedRunResumesAfterCompletedEpochs) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  const std::string path = TempCheckpointPath("resume");
  std::remove(path.c_str());
  FaultInjector no_faults;

  // First run: 2 epochs, checkpointing each.
  DistOptions first;
  first.hops = 2;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  ctx.checkpoint_path = path;
  DistReport report1;
  auto first_or = RunDistributedPropagation(g, parts, x, first, ctx, &report1);
  ASSERT_TRUE(first_or.ok()) << first_or.status().ToString();
  EXPECT_EQ(report1.checkpoints_written, 2);
  EXPECT_FALSE(report1.resumed);

  // Second run wants 4 hops from the same inputs: it must restore the
  // 2-epoch snapshot and execute only epochs 2 and 3 — at a *different*
  // worker count, which bit-identity makes legal.
  const Partition parts4 = partition::LdgPartition(g, 4, 1.05, 31);
  DistOptions second;
  second.hops = 4;
  DistReport report2;
  auto second_or =
      RunDistributedPropagation(g, parts4, x, second, ctx, &report2);
  ASSERT_TRUE(second_or.ok()) << second_or.status().ToString();
  EXPECT_TRUE(report2.resumed);
  EXPECT_EQ(report2.epochs_restored, 2);
  EXPECT_EQ(report2.epochs_run, 2);
  EXPECT_TRUE(second_or.value().Equals(Reference(g, x, second)));
  std::remove(path.c_str());
}

TEST(DistRunTest, ResumeOfFullyCompleteCheckpointRunsNoEpochs) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  const std::string path = TempCheckpointPath("complete");
  std::remove(path.c_str());
  FaultInjector no_faults;
  DistOptions opts;
  opts.hops = 3;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  ctx.checkpoint_path = path;
  ASSERT_TRUE(RunDistributedPropagation(g, parts, x, opts, ctx).ok());
  DistReport report;
  auto again_or = RunDistributedPropagation(g, parts, x, opts, ctx, &report);
  ASSERT_TRUE(again_or.ok()) << again_or.status().ToString();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.epochs_restored, 3);
  EXPECT_EQ(report.epochs_run, 0);
  EXPECT_TRUE(again_or.value().Equals(Reference(g, x, opts)));
  std::remove(path.c_str());
}

TEST(DistRunTest, ExpiredRunDeadlineFailsWithDeadlineExceeded) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  DistOptions opts;
  opts.hops = 2;
  const Partition parts = partition::LdgPartition(g, 2, 1.05, 31);
  FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  ctx.deadline = common::Deadline::After(0);
  auto got_or = RunDistributedPropagation(g, parts, x, opts, ctx);
  ASSERT_FALSE(got_or.ok());
  EXPECT_EQ(got_or.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DistRunTest, RejectsMalformedInputs) {
  const CsrGraph g = TestGraph();
  const Matrix x = TestFeatures(g);
  FaultInjector no_faults;
  core::RunContext ctx;
  ctx.faults = &no_faults;
  DistOptions opts;
  // Features/graph mismatch.
  auto bad_rows = RunDistributedPropagation(
      g, partition::LdgPartition(g, 2, 1.05, 31),
      Matrix(g.num_nodes() - 1, 4), opts, ctx);
  EXPECT_EQ(bad_rows.status().code(), StatusCode::kInvalidArgument);
  // Partition does not cover the graph.
  Partition short_parts{std::vector<int>(10, 0), 2};
  auto bad_parts = RunDistributedPropagation(g, short_parts, x, opts, ctx);
  EXPECT_EQ(bad_parts.status().code(), StatusCode::kInvalidArgument);
  // Partition id out of range.
  Partition bad_ids{std::vector<int>(static_cast<size_t>(g.num_nodes()), 0),
                    2};
  bad_ids.part_of[5] = 7;
  auto bad_id = RunDistributedPropagation(g, bad_ids, x, opts, ctx);
  EXPECT_EQ(bad_id.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sgnn::dist
