#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/propagate.h"
#include "par/par.h"
#include "partition/partition.h"
#include "ppr/ppr.h"
#include "sampling/neighbor_sampler.h"
#include "shard_reseal.h"
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

/// A pinned shard's sections gathered back into the writer's `ShardData`.
ShardData Gather(const PinnedShard& pin) {
  ShardData shard;
  shard.shard_id = static_cast<uint32_t>(pin.shard());
  shard.rows.assign(pin.rows().begin(), pin.rows().end());
  shard.offsets.assign(pin.local_offsets().begin(), pin.local_offsets().end());
  for (int64_t r = 0; r < pin.num_rows(); ++r) {
    const auto nbrs = pin.NeighborsLocal(r);
    const auto ws = pin.WeightsLocal(r);
    shard.neighbors.insert(shard.neighbors.end(), nbrs.begin(), nbrs.end());
    shard.weights.insert(shard.weights.end(), ws.begin(), ws.end());
  }
  return shard;
}

std::unique_ptr<ShardedGraph> OpenUnlimited(const std::string& dir) {
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  EXPECT_TRUE(open_or.ok()) << open_or.status().message();
  return open_or.ok() ? std::move(open_or).value() : nullptr;
}

/// Opens `dir` and pins every shard through the checking reader, so each
/// row's adjacency is read back and compared byte for byte with the
/// in-memory graph's.
void ExpectShardsMatchGraph(const CsrGraph& g, const std::string& dir) {
  const std::unique_ptr<ShardedGraph> sg = OpenUnlimited(dir);
  ASSERT_NE(sg, nullptr);
  ASSERT_EQ(sg->num_nodes(), g.num_nodes());
  ASSERT_EQ(sg->num_edges(), g.num_edges());
  for (int s = 0; s < sg->num_shards(); ++s) {
    auto pin_or = sg->PinShard(s);
    ASSERT_TRUE(pin_or.ok()) << pin_or.status().message();
    const PinnedShard& pin = pin_or.value();
    for (int64_t r = 0; r < pin.num_rows(); ++r) {
      const NodeId u = pin.rows()[r];
      auto nbrs = g.Neighbors(u);
      auto ws = g.Weights(u);
      ASSERT_EQ(pin.NeighborsLocal(r).size(), nbrs.size()) << "node " << u;
      if (nbrs.empty()) continue;  // An empty span's data() may be null.
      ASSERT_EQ(0, std::memcmp(pin.NeighborsLocal(r).data(), nbrs.data(),
                               nbrs.size() * sizeof(NodeId)));
      ASSERT_EQ(0, std::memcmp(pin.WeightsLocal(r).data(), ws.data(),
                               ws.size() * sizeof(float)));
    }
  }
}

/// Opens `dir` under an unlimited budget and pins every shard; the first
/// failure, or OK.
common::Status OpenAndPinAll(const std::string& dir) {
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  auto open_or = ShardedGraph::Open(dir, options);
  if (!open_or.ok()) return open_or.status();
  for (int s = 0; s < open_or.value()->num_shards(); ++s) {
    auto pin_or = open_or.value()->PinShard(s);
    if (!pin_or.ok()) return pin_or.status();
  }
  return common::Status::OK();
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
  // Map -> re-serialize reproduces the on-disk bytes exactly, and a
  // second conversion of the same graph is byte-identical file for file.
  const std::string dir2 = NewDir("roundtrip_contig2");
  ASSERT_TRUE(WriteShardedGraph(g, plan, dir2).ok());
  EXPECT_EQ(ReadAll(ManifestPath(dir)), ReadAll(ManifestPath(dir2)));
  const std::unique_ptr<ShardedGraph> sg = OpenUnlimited(dir);
  ASSERT_NE(sg, nullptr);
  for (int s = 0; s < plan.num_shards; ++s) {
    const std::string bytes = ReadAll(ShardPath(dir, s));
    auto pin_or = sg->PinShard(s);
    ASSERT_TRUE(pin_or.ok());
    EXPECT_EQ(SerializeShard(Gather(pin_or.value())), bytes) << "shard " << s;
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
  std::filesystem::remove_all(dir);
}

TEST(WriterTest, RoundTripPartitionPlan) {
  const CsrGraph g = graph::BarabasiAlbert(150, 3, 21);
  const partition::Partition part = partition::LdgPartition(g, 3, 1.1, 5);
  const std::string dir = NewDir("roundtrip_ldg");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::FromPartition(part), dir).ok());
  ExpectShardsMatchGraph(g, dir);
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
    ExpectStatusContains(OpenAndPinAll(dir), c.diagnostic);
    FlipByte(shard0, c.offset);  // restore
    ASSERT_TRUE(OpenAndPinAll(dir).ok()) << "offset " << c.offset;
  }

  // Truncation: a file shorter than its manifest entry is refused before
  // it is mapped.
  const std::string bytes = ReadAll(shard0);
  {
    std::ofstream out(shard0, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamoff>(bytes.size() - 8));
  }
  ExpectStatusContains(OpenAndPinAll(dir), "truncated");
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
  const common::Status open_status = ShardedGraph::Open(dir).status();
  EXPECT_EQ(open_status.code(), common::StatusCode::kDataLoss);
  ExpectStatusContains(open_status, "exceeds the file size");

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

template <typename T>
void Put(std::string* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

template <typename T>
T Get(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

// Forged files with resealed CRCs pass every integrity check, so only the
// readers' own rules stand between them and the kernels. Each forgery is
// kDataLoss naming its first offender, from the first read that holds the
// rule: ReadManifest for the shard table, Open for a shard's header, rows
// and offsets, and a shard's first map for its adjacency.
TEST(ValidatorTest, SemanticFirstOffenderDiagnostics) {
  const CsrGraph g = graph::ErdosRenyi(80, 300, 4);
  const std::string dir = NewDir("semantic");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  const std::string manifest_path = ManifestPath(dir);
  const std::string manifest_bytes = ReadAll(manifest_path);
  const std::string shard0 = ShardPath(dir, 0);
  const std::string shard_bytes = ReadAll(shard0);

  // Manifest: u64 num_edges at 20, then 28-byte entries from 28 (u32
  // num_rows | u32 min_node | u32 max_node | u64 num_edges | u64
  // file_bytes), a u32, then one u32 shard id per node.
  auto manifest_or = ReadManifest(manifest_path);
  ASSERT_TRUE(manifest_or.ok());
  const std::vector<ShardEntry> shards = manifest_or.value().shards;
  ASSERT_GE(shards[0].num_rows, 3u);
  ASSERT_GE(shards[1].num_rows, 3u);
  ASSERT_LT(shards[0].max_node, shards[1].min_node);
  auto entry = [](uint32_t s, size_t field) { return 28 + 28 * s + field; };
  auto assignment = [](NodeId u) { return 28 + 2 * 28 + 4 + 4 * size_t{u}; };

  // Shard 0 holds nodes 0.. in order, so its local edge indices are the
  // graph's; edges e and e + 1 share the first row with two neighbours.
  const uint32_t num_rows = Get<uint32_t>(shard_bytes, 16);
  const uint64_t edges = Get<uint64_t>(shard_bytes, 24);
  const ShardLayout layout = LayoutFor(num_rows, edges);
  auto row = [&](uint32_t r) { return layout.rows_off + 4 * size_t{r}; };
  auto offset = [&](uint32_t r) { return layout.offsets_off + 8 * size_t{r}; };
  NodeId u = 0;
  while (g.OutDegree(u) < 2) ++u;
  const auto e = static_cast<size_t>(g.offsets()[u]);
  const size_t neighbour = layout.neighbors_off + 4 * e;
  const size_t weight = layout.weights_off + 4 * e;
  // The first row with an edge; the row after it then starts above 0.
  uint32_t r0 = 0;
  while (Get<uint64_t>(shard_bytes, offset(r0 + 1)) == 0) ++r0;
  ASSERT_LT(r0 + 2, num_rows);
  // An inner node of each shard, swapped between them in the assignment.
  const NodeId moved0 = shards[0].min_node + 1;
  const NodeId moved1 = shards[1].min_node + 1;

  enum class Reader { kReadManifest, kOpen, kFirstMap };
  const struct {
    const char* what;
    bool in_manifest;  // Forges the manifest, else shard 0.
    std::function<void(std::string*)> forge;
    Reader refused_by;
    std::string diagnostic;
  } cases[] = {
      {"node assigned past the shard count", true,
       [&](std::string* b) { Put<uint32_t>(b, assignment(79), 2); },
       Reader::kReadManifest, "node 79 assigned to shard 2 of 2"},
      {"node stored in shard 0 but assigned to shard 1", true,
       [&](std::string* b) { Put<uint32_t>(b, assignment(0), 1); },
       Reader::kReadManifest, "overlapping or missing ownership"},
      {"node range that disagrees with the assignment", true,
       [&](std::string* b) {
         Put(b, entry(0, 4), Get<uint32_t>(*b, entry(0, 4)) + 1);
       },
       Reader::kReadManifest, "disagrees with the assignment's"},
      {"shard edge counts past the total", true,
       [&](std::string* b) { Put(b, 20, Get<uint64_t>(*b, 20) - 1); },
       Reader::kReadManifest, "shard edge counts exceed the manifest's"},
      {"shard edge counts short of the total", true,
       [&](std::string* b) { Put(b, 20, Get<uint64_t>(*b, 20) + 1); },
       Reader::kReadManifest, "shard edge counts sum to"},
      {"file size that disagrees with its counts", true,
       [&](std::string* b) {
         Put(b, entry(0, 20), Get<uint64_t>(*b, entry(0, 20)) - 16);
       },
       Reader::kOpen, "header implies"},
      // A self-consistent table: the swap's two range ends move with it.
      {"node listed by shard 0 but assigned to shard 1", true,
       [&](std::string* b) {
         Put<uint32_t>(b, assignment(moved0), 1);
         Put<uint32_t>(b, assignment(moved1), 0);
         Put<uint32_t>(b, entry(0, 8), moved1);
         Put<uint32_t>(b, entry(1, 4), moved0);
       },
       Reader::kOpen,
       "node " + std::to_string(moved0) +
           " listed in shard 0 but assigned to shard 1"},
      {"another shard's id", false,
       [&](std::string* b) { Put<uint32_t>(b, 12, 1); }, Reader::kOpen,
       "shard id 1 does not match manifest position 0"},
      {"row id past num_nodes", false,
       [&](std::string* b) {
         Put<uint32_t>(b, row(num_rows - 1), g.num_nodes() + 1);
       },
       Reader::kOpen, "row node id 81 out of range"},
      {"rows out of order", false,
       [&](std::string* b) {
         const auto first = Get<uint32_t>(*b, row(0));
         Put(b, row(0), Get<uint32_t>(*b, row(1)));
         Put(b, row(1), first);
       },
       Reader::kOpen, "row ids not strictly ascending at row 1"},
      {"offsets that fall back", false,
       [&](std::string* b) { Put<uint64_t>(b, offset(r0 + 2), 0); },
       Reader::kOpen, "offsets decrease at row"},
      {"offsets that stop short of the edges", false,
       [&](std::string* b) { Put<uint64_t>(b, offset(num_rows), edges - 1); },
       Reader::kOpen, "offsets do not span the edge section"},
      {"out-of-range neighbour", false,
       [&](std::string* b) { Put<uint32_t>(b, neighbour, g.num_nodes() + 5); },
       Reader::kFirstMap, "neighbour id out of range"},
      {"unsorted row", false,
       [&](std::string* b) {
         const auto first = Get<uint32_t>(*b, neighbour);
         Put(b, neighbour, Get<uint32_t>(*b, neighbour + 4));
         Put(b, neighbour + 4, first);
       },
       Reader::kFirstMap, "adjacency not sorted"},
      {"NaN weight", false,
       [&](std::string* b) {
         Put(b, weight, std::numeric_limits<float>::quiet_NaN());
       },
       Reader::kFirstMap, "weight not finite"},
  };
  OpenOptions options;
  options.budget_bytes = kUnlimitedBudget;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string& path = c.in_manifest ? manifest_path : shard0;
    const std::string& original = c.in_manifest ? manifest_bytes : shard_bytes;
    std::string forged = original;
    c.forge(&forged);
    if (c.in_manifest) {
      ResealManifest(&forged);
    } else {
      ResealShard(&forged);
    }
    WriteAll(path, forged);
    EXPECT_EQ(ReadManifest(manifest_path).ok(),
              c.refused_by != Reader::kReadManifest);
    auto open_or = ShardedGraph::Open(dir, options);
    EXPECT_EQ(open_or.ok(), c.refused_by == Reader::kFirstMap);
    // A refused map is undone before it is counted as a load.
    const common::Status status =
        open_or.ok() ? open_or.value()->PinShard(0).status()
                     : open_or.status();
    if (open_or.ok()) {
      EXPECT_EQ(open_or.value()->stats().loads, 0u);
    }
    EXPECT_EQ(status.code(), common::StatusCode::kDataLoss);
    ExpectStatusContains(status, c.diagnostic);
    WriteAll(path, original);
  }
  EXPECT_TRUE(OpenAndPinAll(dir).ok());
  std::filesystem::remove_all(dir);
}

// A reload trusts the sections because the header is the one Open kept:
// a shard rewritten with another valid header while evicted is refused.
TEST(ValidatorTest, ReloadRefusesAShardRewrittenWhileEvicted) {
  const CsrGraph g = graph::ErdosRenyi(80, 300, 6);
  const std::string dir = NewDir("rewritten");
  ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 2), dir).ok());
  const std::string shard0 = ShardPath(dir, 0);
  std::string rewritten = ReadAll(shard0);
  const ShardLayout layout = LayoutFor(Get<uint32_t>(rewritten, 16),
                                       Get<uint64_t>(rewritten, 24));
  Put(&rewritten, layout.weights_off,
      Get<float>(rewritten, layout.weights_off) + 1.0f);
  ResealShard(&rewritten);

  auto manifest_or = ReadManifest(ManifestPath(dir));
  ASSERT_TRUE(manifest_or.ok());
  const std::vector<ShardEntry>& shards = manifest_or.value().shards;
  OpenOptions options;  // One shard's budget: pinning shard 1 evicts 0.
  options.budget_bytes = std::max(shards[0].file_bytes, shards[1].file_bytes);
  auto open_or = ShardedGraph::Open(dir, options);
  ASSERT_TRUE(open_or.ok()) << open_or.status().message();
  ShardedGraph& sg = *open_or.value();
  ASSERT_TRUE(sg.PinShard(0).ok());
  ASSERT_TRUE(sg.PinShard(1).ok());  // Evicts shard 0.
  EXPECT_EQ(sg.stats().evictions, 1u);
  WriteAll(shard0, rewritten);
  const common::Status status = sg.PinShard(0).status();
  EXPECT_EQ(status.code(), common::StatusCode::kDataLoss);
  ExpectStatusContains(status, "shard header changed since open");
  // The rewritten file is itself valid: a fresh open accepts it.
  EXPECT_TRUE(OpenAndPinAll(dir).ok());
  std::filesystem::remove_all(dir);
}

// The reader accepts any finite weight, but a row with a negative weight
// or a zero weight sum is not a random-walk step: its spread can grow the
// residual mass, so the out-of-core push refuses it instead of spinning.
TEST(OocPprTest, RowThatIsNotAWalkStepIsInvalidArgument) {
  const struct {
    float to_1;
    float to_2;
  } rows_of_0[] = {{1.0f, -1.0f}, {2.0f, -1.0f}, {0.0f, 0.0f}};
  const std::string dir = NewDir("not_a_walk");
  for (const auto& w : rows_of_0) {
    SCOPED_TRACE(std::to_string(w.to_1) + ", " + std::to_string(w.to_2));
    const CsrGraph g = CsrGraph::FromEdges(
        3, {{0, 1, w.to_1}, {0, 2, w.to_2}, {1, 0, 1.0f}, {2, 0, 1.0f}});
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(WriteShardedGraph(g, ShardPlan::Contiguous(g, 1), dir).ok());
    const std::unique_ptr<ShardedGraph> sg = OpenUnlimited(dir);
    ASSERT_NE(sg, nullptr);
    const std::vector<NodeId> seeds = {0};
    const common::Status status = PushBatch(sg.get(), seeds, 0.15, 1e-4).status();
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
    ExpectStatusContains(status, "node 0 has weighted degree");
  }
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
  // off, and a narrow and a wide (several register strips) matrix.
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
