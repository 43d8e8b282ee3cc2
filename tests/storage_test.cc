#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "partition/partition.h"
#include "ppr/ppr.h"
#include "sampling/neighbor_sampler.h"
#include "storage/format.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

namespace sgnn::storage {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using graph::Normalization;

/// Fresh empty scratch directory under the test temp root.
std::string NewDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sgnn_storage_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

void ExpectStatusContains(const common::Status& status,
                          const std::string& needle) {
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << "status message: " << status.message();
}

/// Rebuilds the full adjacency of `u` from the shard set and checks it is
/// byte-identical to the in-memory graph's.
void ExpectShardsMatchGraph(const CsrGraph& g, const std::string& dir) {
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok()) << manifest_or.status().message();
  const ShardManifest& manifest = manifest_or.value();
  ASSERT_EQ(manifest.num_nodes, g.num_nodes());
  ASSERT_EQ(manifest.num_edges, static_cast<uint64_t>(g.num_edges()));
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    auto shard_or = ReadShardFile(ShardPath(dir, static_cast<int>(s)));
    ASSERT_TRUE(shard_or.ok()) << shard_or.status().message();
    const ShardData& shard = shard_or.value();
    for (size_t r = 0; r < shard.rows.size(); ++r) {
      const NodeId u = shard.rows[r];
      auto nbrs = g.Neighbors(u);
      auto ws = g.Weights(u);
      const uint64_t begin = shard.offsets[r];
      const uint64_t count = shard.offsets[r + 1] - begin;
      ASSERT_EQ(count, nbrs.size()) << "node " << u;
      if (count == 0) continue;  // An empty section's data() may be null.
      ASSERT_EQ(0, std::memcmp(shard.neighbors.data() + begin, nbrs.data(),
                               nbrs.size() * sizeof(NodeId)));
      ASSERT_EQ(0, std::memcmp(shard.weights.data() + begin, ws.data(),
                               ws.size() * sizeof(float)));
    }
  }
}

TEST(FormatTest, ParseBudget) {
  EXPECT_EQ(ParseBudget("262144", 7), 262144u);
  EXPECT_EQ(ParseBudget("256K", 7), 256u * 1024);
  EXPECT_EQ(ParseBudget("4k", 7), 4096u);
  EXPECT_EQ(ParseBudget("3M", 7), 3u * 1024 * 1024);
  EXPECT_EQ(ParseBudget("1G", 7), uint64_t{1} << 30);
  EXPECT_EQ(ParseBudget("0", 7), 0u);
  EXPECT_EQ(ParseBudget(nullptr, 7), 7u);
  EXPECT_EQ(ParseBudget("", 7), 7u);
  EXPECT_EQ(ParseBudget("junk", 7), 7u);
  EXPECT_EQ(ParseBudget("12X", 7), 7u);
}

TEST(FormatTest, ResidentBudgetPrecedence) {
  // A context value always wins; the env is only a fallback for 0.
  const char* old = std::getenv(kResidentBudgetEnv);
  const std::string saved = old != nullptr ? old : "";
  setenv(kResidentBudgetEnv, "4K", 1);
  EXPECT_EQ(ResidentBudgetBytes(123), 123u);
  EXPECT_EQ(ResidentBudgetBytes(0), 4096u);
  unsetenv(kResidentBudgetEnv);
  EXPECT_EQ(ResidentBudgetBytes(0), 0u);
  if (old != nullptr) setenv(kResidentBudgetEnv, saved.c_str(), 1);
}

TEST(WriterTest, RoundTripContiguousPlan) {
  const CsrGraph g = graph::ErdosRenyi(200, 800, 7);
  const std::string dir = NewDir("roundtrip_contig");
  const ShardPlan plan = ShardPlan::Contiguous(g, 4);
  ASSERT_TRUE(WriteShardedGraph(g, plan, dir).ok());
  ExpectShardsMatchGraph(g, dir);
  EXPECT_TRUE(analysis::ValidateShardedGraph(dir).ok());
  // Decode -> re-serialize reproduces the on-disk bytes exactly, and a
  // second conversion of the same graph is byte-identical file for file.
  const std::string dir2 = NewDir("roundtrip_contig2");
  ASSERT_TRUE(WriteShardedGraph(g, plan, dir2).ok());
  EXPECT_EQ(ReadAll(ManifestPath(dir)), ReadAll(ManifestPath(dir2)));
  for (int s = 0; s < plan.num_shards; ++s) {
    const std::string bytes = ReadAll(ShardPath(dir, s));
    auto shard_or = ReadShardFile(ShardPath(dir, s));
    ASSERT_TRUE(shard_or.ok());
    EXPECT_EQ(SerializeShard(shard_or.value()), bytes) << "shard " << s;
    EXPECT_EQ(ReadAll(ShardPath(dir2, s)), bytes) << "shard " << s;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

// A shard whose nodes are all isolated has empty neighbour and weight
// sections; decoding it must not hand memcpy a null destination.
TEST(WriterTest, EdgelessShardRoundTrips) {
  const CsrGraph g = CsrGraph::FromEdges(10, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  const std::string dir = NewDir("edgeless_shard");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  ExpectShardsMatchGraph(g, dir);
  EXPECT_TRUE(analysis::ValidateShardedGraph(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(WriterTest, RoundTripPartitionPlan) {
  const CsrGraph g = graph::BarabasiAlbert(150, 3, 21);
  const partition::Partition part = partition::LdgPartition(g, 3, 1.1, 5);
  const std::string dir = NewDir("roundtrip_ldg");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::FromPartition(part), dir).ok());
  ExpectShardsMatchGraph(g, dir);
  EXPECT_TRUE(analysis::ValidateShardedGraph(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(OpenTest, MissingDirectoryIsNotFound) {
  auto open_or = ShardedGraph::Open(NewDir("never_written"));
  ASSERT_FALSE(open_or.ok());
  EXPECT_EQ(open_or.status().code(), common::StatusCode::kNotFound);
}

TEST(OpenTest, ViewMatchesGraphSurface) {
  const CsrGraph g = graph::ErdosRenyi(120, 500, 3);
  const std::string dir = NewDir("surface");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 3), dir).ok());
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  EXPECT_EQ(sg.num_nodes(), g.num_nodes());
  EXPECT_EQ(sg.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(sg.OutDegree(u), g.OutDegree(u));
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto pin_or = sg.Pin(u);
    ASSERT_TRUE(pin_or.ok());
    auto nbrs = pin_or.value().Neighbors(u);
    auto expected = g.Neighbors(u);
    ASSERT_EQ(nbrs.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(nbrs.data(), expected.data(),
                             nbrs.size() * sizeof(NodeId)));
    EXPECT_DOUBLE_EQ(pin_or.value().WeightedDegree(u), g.WeightedDegree(u));
  }
  std::filesystem::remove_all(dir);
}

/// One corruption-injection case per file section: flip a byte, assert the
/// diagnostic names that section, restore the byte.
TEST(CorruptionTest, EveryShardSectionIsCovered) {
  const CsrGraph g = graph::ErdosRenyi(100, 400, 9);
  const std::string dir = NewDir("corrupt");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const ShardEntry& entry = manifest_or.value().shards[0];
  ASSERT_GT(entry.num_rows, 0u);
  ASSERT_GT(entry.num_edges, 0u);
  const ShardLayout layout = LayoutFor(entry.num_rows, entry.num_edges);
  const std::string shard0 = ShardPath(dir, 0);

  const struct {
    uint64_t offset;
    const char* diagnostic;
  } cases[] = {
      {8, "header"},  // version field, covered by the header CRC
      {layout.rows_off, "rows section"},
      {layout.offsets_off, "offsets section"},
      {layout.neighbors_off, "neighbors section"},
      {layout.weights_off, "weights section"},
  };
  for (const auto& c : cases) {
    FlipByte(shard0, c.offset);
    ExpectStatusContains(ReadShardFile(shard0).status(), c.diagnostic);
    ExpectStatusContains(analysis::ValidateShardedGraph(dir), c.diagnostic);
    FlipByte(shard0, c.offset);  // restore
    ASSERT_TRUE(ReadShardFile(shard0).ok()) << "offset " << c.offset;
  }

  // Truncation: dropping the tail is caught before any section parse.
  const std::string bytes = ReadAll(shard0);
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size() - 8));
  }
  ExpectStatusContains(ReadShardFile(shard0).status(), "truncated");
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
  }

  // Manifest corruption: the trailing CRC catches any flipped byte.
  FlipByte(ManifestPath(dir), 20);
  ASSERT_FALSE(ReadManifest(ManifestPath(dir)).ok());
  FlipByte(ManifestPath(dir), 20);

  // The mmap path re-verifies on load: a neighbour-section flip passes
  // Open (which only reads header/rows/offsets) but fails the pin.
  FlipByte(shard0, layout.neighbors_off);
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ExpectStatusContains(open_or.value()->PinShard(0).status(),
                       "neighbors section");
  FlipByte(shard0, layout.neighbors_off);
  std::filesystem::remove_all(dir);
}

TEST(CorruptionTest, TornManifestIsDataLossAtEveryTruncationPoint) {
  // Crash-atomicity: a torn manifest write (the rename never happened, or a
  // crash left a short file) must surface as kDataLoss with a first-offender
  // message at EVERY possible truncation length — never UB, never a
  // partially-opened graph. Sweep every byte boundary of the manifest tail.
  const CsrGraph g = graph::ErdosRenyi(60, 240, 11);
  const std::string dir = NewDir("torn_manifest");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  const std::string manifest_path = ManifestPath(dir);
  const std::string bytes = ReadAll(manifest_path);
  ASSERT_GT(bytes.size(), 8u);

  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    {
      std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamoff>(keep));
    }
    auto open_or = ShardedGraph::Open(dir);
    ASSERT_FALSE(open_or.ok()) << "opened with a " << keep
                               << "-byte manifest tail";
    EXPECT_EQ(open_or.status().code(), common::StatusCode::kDataLoss)
        << "keep=" << keep << ": " << open_or.status().ToString();
    // First-offender diagnostics: the message names the manifest and what
    // framing check tripped, so operators see the torn file immediately.
    ExpectStatusContains(open_or.status(), manifest_path);
  }

  // Restoring the full manifest restores the graph: no state leaked from
  // the failed opens.
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
  }
  auto open_or = ShardedGraph::Open(dir);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  EXPECT_EQ(open_or.value()->num_nodes(), g.num_nodes());
  std::filesystem::remove_all(dir);
}

// Overwrites `bytes` at `offset` with `value`, then recomputes the CRC of
// [0, crc_offset) stored at `crc_offset`, so the forgery passes integrity.
template <typename T>
void Forge(std::string* bytes, size_t offset, T value, size_t crc_offset) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
  const uint32_t crc = common::Crc32(bytes->data(), crc_offset);
  std::memcpy(bytes->data() + crc_offset, &crc, sizeof(crc));
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamoff>(bytes.size()));
}

// CRC-valid files whose counts claim more than the file holds are
// kDataLoss before any allocation is sized from them: a shard header whose
// edge count is raised by 2^62 (its section sizes wrap 64 bits back to the
// real ones) and a manifest claiming 2^28 nodes (a 1 GiB assignment).
TEST(CorruptionTest, ForgedCountsAreDataLossBeforeAllocating) {
  const CsrGraph g = graph::ErdosRenyi(100, 400, 13);
  const std::string dir = NewDir("forged_counts");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const ShardManifest& manifest = manifest_or.value();

  // Header: num_edges is the u64 at byte 24; the header CRC covers [0, 44).
  const std::string shard0 = ShardPath(dir, 0);
  std::string shard_bytes = ReadAll(shard0);
  Forge<uint64_t>(&shard_bytes, 24,
                  manifest.shards[0].num_edges + (uint64_t{1} << 62),
                  kShardHeaderBytes - sizeof(uint32_t));
  WriteAll(shard0, shard_bytes);
  for (const common::Status& status :
       {ReadShardFile(shard0).status(),
        analysis::ValidateShardFile(manifest, 0, shard0)}) {
    EXPECT_EQ(status.code(), common::StatusCode::kDataLoss);
    ExpectStatusContains(status, "exceeds the file size");
  }
  EXPECT_EQ(ShardedGraph::Open(dir).status().code(),
            common::StatusCode::kDataLoss);

  // Manifest: num_nodes is the u32 at byte 16; the trailing CRC covers the
  // rest of the file.
  std::string manifest_bytes = ReadAll(ManifestPath(dir));
  Forge<uint32_t>(&manifest_bytes, 16, uint32_t{1} << 28,
                  manifest_bytes.size() - sizeof(uint32_t));
  WriteAll(ManifestPath(dir), manifest_bytes);
  const common::Status status = ReadManifest(ManifestPath(dir)).status();
  EXPECT_EQ(status.code(), common::StatusCode::kDataLoss);
  ExpectStatusContains(status, "truncated manifest");
  std::filesystem::remove_all(dir);
}

TEST(ValidatorTest, SemanticFirstOffenderDiagnostics) {
  const CsrGraph g = graph::ErdosRenyi(80, 300, 4);
  const std::string dir = NewDir("semantic");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  ShardManifest manifest = manifest_or.value();
  auto shard_or = ReadShardFile(ShardPath(dir, 0));
  ASSERT_TRUE(shard_or.ok());
  ShardData shard = shard_or.value();
  ASSERT_TRUE(analysis::ValidateShardManifest(manifest).ok());
  ASSERT_TRUE(analysis::ValidateShardData(manifest, 0, shard).ok());

  {  // Out-of-range neighbour id.
    ShardData bad = shard;
    bad.neighbors[0] = manifest.num_nodes + 5;
    ExpectStatusContains(analysis::ValidateShardData(manifest, 0, bad),
                         "neighbour id out of range");
  }
  {  // A node stored in a shard the assignment gives to another.
    ShardManifest bad = manifest;
    bad.shard_of[shard.rows[0]] = 1;
    ExpectStatusContains(analysis::ValidateShardData(bad, 0, shard),
                         "overlapping shard ranges");
    // The manifest-level counting pass sees the same overlap.
    ExpectStatusContains(analysis::ValidateShardManifest(bad),
                         "overlapping or missing shard ranges");
  }
  {  // Recorded file size inconsistent with the recorded counts.
    ShardManifest bad = manifest;
    bad.shards[0].file_bytes -= 16;
    ExpectStatusContains(analysis::ValidateShardManifest(bad),
                         "truncated shard file");
  }
  {  // Non-finite weight.
    ShardData bad = shard;
    bad.weights[0] = std::numeric_limits<float>::quiet_NaN();
    ExpectStatusContains(analysis::ValidateShardData(manifest, 0, bad),
                         "not finite");
  }
  std::filesystem::remove_all(dir);
}

TEST(ValidatorTest, RunContextWiring) {
  core::RunContext ctx;
  ctx.resident_budget_bytes = 4096;
  EXPECT_FALSE(analysis::ShardOpenOptions(ctx).deep_validator);
  ctx.validate_stages = true;
  OpenOptions options = analysis::ShardOpenOptions(ctx);
  EXPECT_EQ(options.budget_bytes, 4096u);
  ASSERT_TRUE(options.deep_validator);
  // The wired hook is the real end-to-end validator.
  const CsrGraph g = graph::ErdosRenyi(60, 200, 2);
  const std::string dir = NewDir("wiring");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  EXPECT_TRUE(options.deep_validator(dir).ok());
  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const ShardLayout layout = LayoutFor(manifest_or.value().shards[0].num_rows,
                                       manifest_or.value().shards[0].num_edges);
  FlipByte(ShardPath(dir, 0), layout.weights_off);
  // A deep-validated Open refuses the corrupt directory outright.
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_FALSE(open_or.ok());
  ExpectStatusContains(open_or.status(), "weights section");
  std::filesystem::remove_all(dir);
}

TEST(CacheTest, BudgetExhaustionIsResourceExhausted) {
  const CsrGraph g = graph::ErdosRenyi(100, 400, 17);
  const std::string dir = NewDir("exhausted");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  OpenOptions options;
  options.budget_bytes = 64;  // Smaller than any shard file.
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  auto pin_or = open_or.value()->PinShard(0);
  ASSERT_FALSE(pin_or.ok());
  EXPECT_EQ(pin_or.status().code(), common::StatusCode::kResourceExhausted);
  ExpectStatusContains(pin_or.status(), "SGNN_RESIDENT_BUDGET");
  std::filesystem::remove_all(dir);
}

uint64_t MaxShardBytes(const ShardedGraph& sg) {
  uint64_t max_bytes = 0;
  for (const ShardEntry& entry : sg.manifest().shards) {
    max_bytes = std::max(max_bytes, entry.file_bytes);
  }
  return max_bytes;
}

TEST(CacheTest, EvictionSequenceIsThreadCountInvariant) {
  const CsrGraph g = graph::ErdosRenyi(400, 3000, 23);
  const std::string dir = NewDir("eviction_det");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 6), dir).ok());
  const int saved_threads = par::NumThreads();
  StorageStats reference;
  for (const int threads : {1, 8}) {
    par::SetThreads(threads);
    OpenOptions options;
    auto probe_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(probe_or.ok());
    options.budget_bytes = 2 * MaxShardBytes(*probe_or.value());
    auto open_or = ShardedGraph::Open(dir, options);
    ASSERT_TRUE(open_or.ok());
    ShardedGraph& sg = *open_or.value();
    auto prop_or = OocPropagator::Create(&sg, Normalization::kSymmetric, true);
    ASSERT_TRUE(prop_or.ok());
    tensor::Matrix x(static_cast<int64_t>(g.num_nodes()), 4, 1.0f);
    tensor::Matrix out;
    ASSERT_TRUE(prop_or.value().Apply(x, &out).ok());
    const std::vector<NodeId> seeds = {0, 5, 9, 120, 311};
    ASSERT_TRUE(PushBatch(&sg, seeds, 0.15, 1e-4).ok());
    const StorageStats stats = sg.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.peak_resident_bytes, options.budget_bytes);
    if (threads == 1) {
      reference = stats;
    } else {
      // The load/eviction sequence is a pure function of (graph, plan,
      // budget): byte-for-byte equal counters at any SGNN_THREADS.
      EXPECT_EQ(stats.loads, reference.loads);
      EXPECT_EQ(stats.evictions, reference.evictions);
      EXPECT_EQ(stats.bytes_loaded, reference.bytes_loaded);
      EXPECT_EQ(stats.peak_resident_bytes, reference.peak_resident_bytes);
    }
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

/// The acceptance gate: propagate + PPR + sampling over a ShardedGraph
/// whose budget is far below the total shard bytes, bit-identical to the
/// in-memory kernels, at tiny and unlimited budgets x 1 and 8 threads.
TEST(BitIdentityTest, PipelineMatchesInMemoryAtAnyBudgetAndThreads) {
  const CsrGraph g = graph::ErdosRenyi(300, 1800, 13);
  const std::string dir = NewDir("bit_identity");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 5), dir).ok());

  // In-memory reference results: every normalisation, self loops on and
  // off, and a narrow and a wide (> 128 columns, column-blocked) matrix.
  struct PropCase {
    Normalization norm;
    bool self_loops;
    tensor::Matrix x;
    tensor::Matrix expected_out;
  };
  std::vector<PropCase> prop_cases;
  common::Rng fill(99);
  for (const int64_t cols : {6, 160}) {
    tensor::Matrix x(static_cast<int64_t>(g.num_nodes()), cols);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(fill.Uniform(-1.0, 1.0));
    }
    for (const Normalization norm :
         {Normalization::kNone, Normalization::kRow, Normalization::kColumn,
          Normalization::kSymmetric}) {
      for (const bool self_loops : {true, false}) {
        const graph::Propagator prop(g, norm, self_loops);
        PropCase c{norm, self_loops, x, {}};
        prop.Apply(x, &c.expected_out);
        prop_cases.push_back(std::move(c));
      }
    }
  }
  const std::vector<NodeId> seeds = {0, 7, 42, 131, 256, 299};
  const std::vector<ppr::PushResult> expected_ppr =
      ppr::PushBatch(g, seeds, 0.2, 1e-4);
  const std::vector<int> fanouts = {3, 2};
  common::Rng sample_rng(1234);
  const sampling::MiniBatch expected_batch =
      sampling::SampleNodeWise(g, seeds, fanouts, &sample_rng);

  OpenOptions probe;
  probe.budget_bytes = kUnlimitedBudget;
  auto probe_or = ShardedGraph::Open(dir, probe);
  ASSERT_TRUE(probe_or.ok());
  const uint64_t tiny = MaxShardBytes(*probe_or.value());
  ASSERT_LT(tiny, probe_or.value()->total_shard_bytes());
  probe_or.value().reset();

  const int saved_threads = par::NumThreads();
  for (const uint64_t budget : {tiny, kUnlimitedBudget}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " threads=" + std::to_string(threads));
      par::SetThreads(threads);
      OpenOptions options;
      options.budget_bytes = budget;
      auto open_or = ShardedGraph::Open(dir, options);
      ASSERT_TRUE(open_or.ok()) << open_or.status().message();
      ShardedGraph& sg = *open_or.value();

      for (const PropCase& c : prop_cases) {
        SCOPED_TRACE("norm=" + std::to_string(static_cast<int>(c.norm)) +
                     " self_loops=" + std::to_string(c.self_loops) +
                     " cols=" + std::to_string(c.x.cols()));
        auto ooc_prop_or = OocPropagator::Create(&sg, c.norm, c.self_loops);
        ASSERT_TRUE(ooc_prop_or.ok());
        tensor::Matrix out;
        ASSERT_TRUE(ooc_prop_or.value().Apply(c.x, &out).ok());
        ASSERT_EQ(out.size(), c.expected_out.size());
        EXPECT_EQ(0, std::memcmp(out.data(), c.expected_out.data(),
                                 static_cast<size_t>(out.size()) *
                                     sizeof(float)));
      }

      auto ppr_or = PushBatch(&sg, seeds, 0.2, 1e-4);
      ASSERT_TRUE(ppr_or.ok());
      ASSERT_EQ(ppr_or.value().size(), expected_ppr.size());
      for (size_t i = 0; i < seeds.size(); ++i) {
        const ppr::PushResult& got = ppr_or.value()[i];
        const ppr::PushResult& want = expected_ppr[i];
        EXPECT_EQ(got.pushes, want.pushes);
        EXPECT_EQ(got.edges_touched, want.edges_touched);
        // Exact double equality per (node, mass) entry; memcmp would also
        // compare the pair's uninitialised padding bytes.
        EXPECT_EQ(got.estimate, want.estimate);
      }

      common::Rng rng(1234);
      auto batch_or = SampleNodeWise(&sg, seeds, fanouts, &rng);
      ASSERT_TRUE(batch_or.ok());
      const sampling::MiniBatch& got = batch_or.value();
      ASSERT_EQ(got.layers.size(), expected_batch.layers.size());
      for (size_t l = 0; l < got.layers.size(); ++l) {
        EXPECT_EQ(got.layers[l].dst, expected_batch.layers[l].dst);
        EXPECT_EQ(got.layers[l].src, expected_batch.layers[l].src);
        EXPECT_EQ(got.layers[l].offsets, expected_batch.layers[l].offsets);
        EXPECT_EQ(got.layers[l].src_local,
                  expected_batch.layers[l].src_local);
        EXPECT_EQ(got.layers[l].weights, expected_batch.layers[l].weights);
      }

      const StorageStats stats = sg.stats();
      EXPECT_LE(stats.peak_resident_bytes,
                budget == kUnlimitedBudget ? sg.total_shard_bytes() : budget);
      if (budget == tiny) {
        EXPECT_GT(stats.evictions, 0u);
      }
    }
  }
  par::SetThreads(saved_threads);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sgnn::storage
