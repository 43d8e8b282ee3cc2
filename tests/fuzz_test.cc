// Deterministic mutation fuzzer over every decoder at a trust boundary:
// checkpoints, shard manifests and sharded graphs, worker specs, row batches,
// dist frames, HTTP requests, infer request bodies, edge lists and the
// dataset text files. The corpus is what the library's own writers
// produce; mutations come from a fixed-seed SplitMix64 stream with a fixed
// count per target, so every run replays the same inputs.
//
// The contract for every decode call: it returns a Status, with no crash,
// abort, sanitizer report or escaped exception, and a call that rejects
// its input made no single allocation over 64 MiB. The binary links
// alloc_tracker.cc, whose replaced operator new throws std::bad_alloc
// above 1 GiB, so a size forged past a decoder's checks fails its case
// instead of exhausting the machine.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_tracker.h"
#include "shard_reseal.h"
#include "common/crc32.h"
#include "common/fault.h"
#include "common/posix.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/dataset.h"
#include "core/dataset_io.h"
#include "dist/exchange.h"
#include "dist/frame.h"
#include "dist/worker.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "net/http.h"
#include "net/json.h"
#include "storage/format.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"
#include "tensor/matrix.h"

namespace sgnn {
namespace {

using common::Status;
using graph::NodeId;

/// A decode that rejects its input may make no single allocation above
/// this.
constexpr size_t kRejectedAllocCap = size_t{64} << 20;

/// Random mutations per target, on top of the targeted ones.
constexpr int kIterations = 2000;
/// Leading decimal tokens of each text corpus entry that get every special
/// value; later tokens are reached by the random phase.
constexpr size_t kTargetedTokens = 16;
/// Failed cases reported per target before it stops.
constexpr int kMaxReportedFailures = 5;

/// The values that wrap, truncate or overflow a count on its way to an
/// allocation: 0, 1, 2^28, 2^31, 2^32 - 1, 2^32, 2^62 and 2^64 - 1.
constexpr uint64_t kSpecialValues[] = {
    0,          1,          uint64_t{1} << 28, uint64_t{1} << 31,
    UINT32_MAX, uint64_t{1} << 32, uint64_t{1} << 62, UINT64_MAX};

/// A count or length field of a binary corpus entry.
struct Field {
  size_t offset;
  size_t width;
};

/// One decoder under test. Binary formats list their count and length
/// fields per corpus entry; text formats (`fields` empty) get special
/// values in place of their decimal tokens.
struct Target {
  std::vector<std::string> corpus;
  std::vector<std::vector<Field>> fields;
  /// Recomputes the format's CRCs after a mutation; null when it has none.
  std::function<void(std::string*)> reseal;
  std::function<Status(const std::string&)> decode;
  /// For formats whose counts are content rather than lengths: the cap's
  /// bad_alloc is an accepted outcome.
  bool allow_cap = false;
};

/// Runs one decode under the contract; false (after reporting) on a
/// violation.
bool Check(const Target& target, const std::string& input,
           const std::string& what) {
  alloc_tracker::ResetLargest();
  Status status;
  try {
    status = target.decode(input);
  } catch (const std::bad_alloc&) {
    if (target.allow_cap) return true;
    ADD_FAILURE() << what << ": an allocation went past the 1 GiB cap";
    return false;
  } catch (...) {
    ADD_FAILURE() << what << ": an exception escaped the decoder";
    return false;
  }
  const size_t largest = alloc_tracker::Largest();
  if (!status.ok() && largest > kRejectedAllocCap) {
    ADD_FAILURE() << what << ": rejected (" << status.ToString()
                  << ") after allocating " << largest << " bytes at once";
    return false;
  }
  return true;
}

/// (offset, length) of every run of decimal digits.
std::vector<std::pair<size_t, size_t>> DecimalTokens(const std::string& s) {
  std::vector<std::pair<size_t, size_t>> tokens;
  for (size_t i = 0; i < s.size();) {
    if (s[i] < '0' || s[i] > '9') {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
    tokens.emplace_back(i, j - i);
    i = j;
  }
  return tokens;
}

/// Writes the low `width` bytes of `value` (host order, as every binary
/// format stores it) at `offset`, when they fit.
void Poke(std::string* bytes, size_t offset, size_t width, uint64_t value) {
  if (offset + width <= bytes->size()) {
    std::memcpy(bytes->data() + offset, &value, width);
  }
}

void ReplaceToken(std::string* text, std::pair<size_t, size_t> token,
                  uint64_t value) {
  text->replace(token.first, token.second, std::to_string(value));
}

/// A SplitMix64 stream: output i is `MixSeed(seed, i)`.
class Stream {
 public:
  explicit Stream(uint64_t seed) : seed_(seed) {}
  uint64_t Next() { return common::MixSeed(seed_, next_++); }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t seed_;
  uint64_t next_ = 0;
};

/// Applies one random mutation: bit flips, truncation, a splice with a
/// corpus entry, random insertion, or a special value in a count field or
/// decimal token.
void Mutate(const Target& target, size_t entry, Stream* rng,
            std::string* input) {
  switch (rng->Below(5)) {
    case 0:
      for (size_t n = 1 + rng->Below(8); n > 0 && !input->empty(); --n) {
        (*input)[rng->Below(input->size())] ^=
            static_cast<char>(1 << rng->Below(8));
      }
      break;
    case 1:
      input->resize(rng->Below(input->size()));
      break;
    case 2: {
      const std::string& other = target.corpus[rng->Below(target.corpus.size())];
      const size_t cut = rng->Below(input->size() + 1);
      const size_t from = rng->Below(other.size() + 1);
      *input = input->substr(0, cut) + other.substr(from);
      break;
    }
    case 3: {
      std::string bytes(1 + rng->Below(16), '\0');
      for (char& c : bytes) c = static_cast<char>(rng->Next());
      input->insert(rng->Below(input->size() + 1), bytes);
      break;
    }
    default: {
      const uint64_t value =
          kSpecialValues[rng->Below(std::size(kSpecialValues))];
      if (target.fields.empty()) {
        const auto tokens = DecimalTokens(*input);
        if (!tokens.empty()) {
          ReplaceToken(input, tokens[rng->Below(tokens.size())], value);
        }
      } else if (!target.fields[entry].empty()) {
        const auto& fields = target.fields[entry];
        const Field& f = fields[rng->Below(fields.size())];
        Poke(input, f.offset, f.width, value);
      }
      break;
    }
  }
}

/// The targeted phase (every special value in every count field, or in
/// each leading decimal token) and then `kIterations` random cases, each
/// one to three stacked mutations, resealed half of the time.
void Fuzz(const Target& target, uint64_t seed) {
  int failures = 0;
  auto run = [&](const std::string& input, const std::string& what) {
    if (!Check(target, input, what)) ++failures;
    return failures < kMaxReportedFailures;
  };
  for (size_t e = 0; e < target.corpus.size(); ++e) {
    const std::string& original = target.corpus[e];
    for (const uint64_t value : kSpecialValues) {
      const std::string what =
          "entry " + std::to_string(e) + " value " + std::to_string(value);
      if (target.fields.empty()) {
        const auto tokens = DecimalTokens(original);
        for (size_t t = 0; t < std::min(tokens.size(), kTargetedTokens); ++t) {
          std::string input = original;
          ReplaceToken(&input, tokens[t], value);
          if (!run(input, what + " in token " + std::to_string(t))) return;
        }
        continue;
      }
      for (const Field& f : target.fields[e]) {
        std::string input = original;
        Poke(&input, f.offset, f.width, value);
        if (target.reseal) target.reseal(&input);
        if (!run(input, what + " at byte " + std::to_string(f.offset))) {
          return;
        }
      }
    }
  }
  Stream rng(seed);
  for (int i = 0; i < kIterations; ++i) {
    const size_t e = rng.Below(target.corpus.size());
    std::string input = target.corpus[e];
    for (size_t n = 1 + rng.Below(3); n > 0; --n) {
      Mutate(target, e, &rng, &input);
    }
    if (target.reseal && rng.Below(2) == 0) target.reseal(&input);
    if (!run(input, "random case " + std::to_string(i))) return;
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/sgnn_fuzz_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

tensor::Matrix Features(int64_t rows, int64_t cols, uint64_t seed) {
  common::Rng rng(seed);
  return tensor::Matrix::Gaussian(rows, cols, 0.0f, 1.0f, &rng);
}

// ---- checkpoints ---------------------------------------------------------

constexpr uint64_t kSignature = 7;

/// Count and length fields of `snap`'s serialised form: stages_done, the
/// stage count and each stage name's length, the node and edge counts, and
/// the feature dimensions.
std::vector<Field> SnapshotFields(const core::PipelineSnapshot& snap) {
  std::vector<Field> fields = {{20, 4}, {24, 4}};
  size_t at = 28;  // magic | u32 version | u64 signature | i32 | u32
  for (const core::StageTiming& stage : snap.stages) {
    fields.push_back({at, 4});
    at += sizeof(uint32_t) + stage.name.size() + sizeof(double) +
          6 * sizeof(uint64_t);
  }
  at += 2 * sizeof(int64_t);  // edges_before, feature_cols_before
  fields.push_back({at, 4});
  fields.push_back({at + 4, 8});
  at += 12 + static_cast<size_t>(snap.graph.num_edges()) * 12;
  fields.push_back({at, 8});
  fields.push_back({at + 8, 8});
  return fields;
}

TEST(FuzzTest, LoadSnapshot) {
  core::PipelineSnapshot pipeline;
  pipeline.signature = kSignature;
  pipeline.stages_done = 2;
  pipeline.stages.push_back({"edit:a", 1.5, common::OpCounters{1, 2, 3, 4}});
  pipeline.stages.push_back({"analytics:b", 0.25, common::OpCounters{}});
  pipeline.graph = graph::ErdosRenyi(40, 120, 3);
  pipeline.features = Features(40, 4, 5);
  core::PipelineSnapshot coordinator;  // The dist coordinator's: no graph.
  coordinator.signature = kSignature;
  coordinator.features = Features(6, 3, 7);

  const std::string path = TempPath("snapshot.bin");
  Target target;
  for (const core::PipelineSnapshot* snap : {&pipeline, &coordinator}) {
    ASSERT_TRUE(core::SaveSnapshot(*snap, path).ok());
    target.corpus.push_back(ReadBytes(path));
    target.fields.push_back(SnapshotFields(*snap));
  }
  target.reseal = ResealTrailer;
  target.decode = [&path](const std::string& input) {
    WriteBytes(path, input);
    return core::LoadSnapshot(path, kSignature).status();
  };
  Fuzz(target, 1);
  std::filesystem::remove(path);
}

// ---- shard manifests and shard files -------------------------------------

/// Writes a 3-shard graph and a 1-shard graph; returns their manifests'
/// bytes and their shard files' bytes.
void ShardCorpus(const std::string& dir, std::vector<std::string>* manifests,
                 std::vector<std::string>* shards) {
  const graph::CsrGraph g = graph::ErdosRenyi(60, 200, 11);
  const graph::CsrGraph small = graph::ErdosRenyi(5, 4, 13);
  for (const auto& [graph_ptr, num_shards] :
       {std::pair{&g, 3}, std::pair{&small, 1}}) {
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(storage::WriteShardedGraph(
                    *graph_ptr,
                    storage::ShardPlan::Contiguous(*graph_ptr, num_shards),
                    dir)
                    .ok());
    manifests->push_back(ReadBytes(storage::ManifestPath(dir)));
    for (int s = 0; s < num_shards; ++s) {
      shards->push_back(ReadBytes(storage::ShardPath(dir, s)));
    }
  }
  std::filesystem::remove_all(dir);
}

/// A manifest's count fields: version | num_shards | num_nodes |
/// num_edges, then each 28-byte entry's num_rows, num_edges and file_bytes.
std::vector<Field> ManifestFields(const std::string& bytes) {
  std::vector<Field> fields = {{8, 4}, {12, 4}, {16, 4}, {20, 8}};
  uint32_t num_shards = 0;
  std::memcpy(&num_shards, bytes.data() + 12, sizeof(num_shards));
  for (size_t at = 28; num_shards > 0; --num_shards, at += 28) {
    fields.push_back({at, 4});
    fields.push_back({at + 12, 8});
    fields.push_back({at + 20, 8});
  }
  return fields;
}

TEST(FuzzTest, ReadManifest) {
  Target target;
  std::vector<std::string> shards;
  ShardCorpus(TempPath("manifest_dir"), &target.corpus, &shards);
  for (const std::string& bytes : target.corpus) {
    target.fields.push_back(ManifestFields(bytes));
  }
  target.reseal = ResealManifest;
  const std::string path = TempPath("manifest.sgnn");
  target.decode = [&path](const std::string& input) {
    WriteBytes(path, input);
    return storage::ReadManifest(path).status();
  };
  Fuzz(target, 2);
  std::filesystem::remove(path);
}

/// Shard files with their header counts (num_rows, num_edges) as fields.
Target ShardTarget(const std::string& dir) {
  Target target;
  std::vector<std::string> manifests;
  ShardCorpus(dir, &manifests, &target.corpus);
  target.fields.assign(target.corpus.size(), {{16, 4}, {24, 8}});
  target.reseal = ResealShard;
  return target;
}

TEST(FuzzTest, ParseShardHeaderAndVerifyShardSections) {
  Target target = ShardTarget(TempPath("header_dir"));
  target.decode = [](const std::string& input) {
    auto header = storage::ParseShardHeader(input.data(), input.size(), "fuzz");
    if (!header.ok()) return header.status();
    return storage::VerifyShardSections(input.data(), header.value(), "fuzz");
  };
  Fuzz(target, 3);
}

/// Opens the sharded graph in `dir` under `budget`, pins every shard, and
/// runs the out-of-core propagator and a PPR push batch over it: whatever
/// `Open` and `PinShard` accept, the kernels must be able to use.
Status OpenPinAndRun(const std::string& dir, uint64_t budget) {
  storage::OpenOptions options;
  options.budget_bytes = budget;
  auto open_or = storage::ShardedGraph::Open(dir, options);
  if (!open_or.ok()) return open_or.status();
  storage::ShardedGraph& sg = *open_or.value();
  for (int s = 0; s < sg.num_shards(); ++s) {
    SGNN_RETURN_IF_ERROR(sg.PinShard(s).status());
  }
  auto prop_or = storage::OocPropagator::Create(
      &sg, graph::Normalization::kSymmetric, /*add_self_loops=*/true);
  if (!prop_or.ok()) return prop_or.status();
  const tensor::Matrix x(static_cast<int64_t>(sg.num_nodes()), 4, 1.0f);
  tensor::Matrix out;
  SGNN_RETURN_IF_ERROR(prop_or.value().Apply(x, &out));
  if (sg.num_nodes() == 0) return Status::OK();
  const NodeId seeds[] = {0, sg.num_nodes() / 2, sg.num_nodes() - 1};
  return storage::PushBatch(&sg, seeds, 0.15, 1e-3).status();
}

// The path the program runs: each case replaces the manifest or one shard
// file of a 3-shard graph — the one its magic and header shard id name —
// then opens the graph under a one-shard budget, so every pin evicts and
// reloads, and runs the kernels over it. Shard images carry their first
// neighbour id as a field next to the header counts.
TEST(FuzzTest, OpenAndPinShardedGraph) {
  constexpr int kShards = 3;
  const std::string dir = TempPath("graph_dir");
  std::filesystem::remove_all(dir);
  const graph::CsrGraph g = graph::ErdosRenyi(60, 200, 11);
  ASSERT_TRUE(storage::WriteShardedGraph(
                  g, storage::ShardPlan::Contiguous(g, kShards), dir)
                  .ok());
  std::vector<std::string> paths = {storage::ManifestPath(dir)};
  for (int s = 0; s < kShards; ++s) paths.push_back(storage::ShardPath(dir, s));

  Target target;
  uint64_t budget = 0;
  for (const std::string& path : paths) {
    const std::string bytes = ReadBytes(path);
    target.corpus.push_back(bytes);
    if (target.corpus.size() == 1) {
      target.fields.push_back(ManifestFields(bytes));
      continue;
    }
    uint32_t num_rows = 0;
    std::memcpy(&num_rows, bytes.data() + 16, sizeof(num_rows));
    const storage::ShardLayout layout = storage::LayoutFor(num_rows, 0);
    target.fields.push_back(
        {{16, 4}, {24, 8}, {static_cast<size_t>(layout.neighbors_off), 4}});
    budget = std::max<uint64_t>(budget, bytes.size());
  }
  auto is_manifest = [](const std::string& bytes) {
    return bytes.compare(0, sizeof(storage::kManifestMagic),
                         storage::kManifestMagic,
                         sizeof(storage::kManifestMagic)) == 0;
  };
  target.reseal = [&is_manifest](std::string* bytes) {
    if (is_manifest(*bytes)) {
      ResealManifest(bytes);
    } else {
      ResealShard(bytes);
    }
  };
  const std::vector<std::string> originals = target.corpus;
  target.decode = [&](const std::string& input) {
    size_t file = 0;
    if (!is_manifest(input)) {
      uint32_t shard = 0;
      if (input.size() >= 16) {
        std::memcpy(&shard, input.data() + 12, sizeof(shard));
      }
      file = 1 + (shard < kShards ? shard : 0);
    }
    WriteBytes(paths[file], input);
    const Status status = OpenPinAndRun(dir, budget);
    WriteBytes(paths[file], originals[file]);
    return status;
  };
  Fuzz(target, 4);
  std::filesystem::remove_all(dir);
}

// ---- dist: worker specs, row batches and frames --------------------------

/// A worker owning the even ids below 40 and receiving the odd ones; each
/// owned node aggregates its two ring neighbours. Halo id 2j + 1 is
/// value-store row 20 + j, so owned[i] = 2i reads rows 20 + i - 1 (row 39
/// for i = 0) and 20 + i.
dist::WorkerSpec RingSpec() {
  constexpr NodeId kOwned = 20;
  dist::WorkerSpec spec;
  spec.worker_id = 1;
  spec.num_workers = 2;
  spec.incarnation = 3;
  spec.cols = 4;
  spec.offsets = {0};
  for (NodeId i = 0; i < kOwned; ++i) {
    spec.owned.push_back(2 * i);
    spec.halo.push_back(2 * i + 1);
    for (const NodeId slot :
         {i == 0 ? 2 * kOwned - 1 : kOwned + i - 1, kOwned + i}) {
      spec.slots.push_back(slot);
      spec.coefficients.push_back(0.5f);
    }
    spec.offsets.push_back(static_cast<graph::EdgeIndex>(spec.slots.size()));
    spec.self_loop.push_back(0.25f);
  }
  return spec;
}

/// worker_id, num_workers, incarnation, cols, then each vector's u64 count.
std::vector<Field> SpecFields(const dist::WorkerSpec& spec) {
  std::vector<Field> fields = {{0, 4}, {4, 4}, {8, 4}, {12, 8}};
  size_t at = 20;
  for (const size_t bytes :
       {spec.owned.size() * 4, spec.halo.size() * 4, spec.offsets.size() * 8,
        spec.slots.size() * 4, spec.coefficients.size() * 4,
        spec.self_loop.size() * 4}) {
    fields.push_back({at, 8});
    at += 8 + bytes;
  }
  return fields;
}

TEST(FuzzTest, WorkerSpecParse) {
  dist::WorkerSpec minimal;
  minimal.num_workers = 1;
  minimal.offsets = {0};
  Target target;
  for (const dist::WorkerSpec& spec : {RingSpec(), minimal}) {
    ASSERT_TRUE(dist::WorkerSpec::Parse(spec.Serialize()).ok());
    target.corpus.push_back(spec.Serialize());
    target.fields.push_back(SpecFields(spec));
  }
  target.decode = [](const std::string& input) {
    return dist::WorkerSpec::Parse(input).status();
  };
  Fuzz(target, 5);
}

constexpr int64_t kRowCols = 5;

std::string RowBatch(const std::vector<NodeId>& ids) {
  const tensor::Matrix rows =
      Features(static_cast<int64_t>(ids.size()), kRowCols, 17);
  return dist::EncodeRows(ids, kRowCols, [&rows](size_t i) {
    return rows.Row(static_cast<int64_t>(i)).data();
  });
}

TEST(FuzzTest, DecodeRows) {
  Target target;
  target.corpus = {RowBatch({3, 9, 27, 81}), RowBatch({})};
  target.fields.assign(target.corpus.size(), {{0, 4}});
  target.decode = [](const std::string& input) {
    float row[kRowCols];
    return dist::DecodeRows(input, kRowCols,
                            [&row](NodeId, const float* values) {
                              std::memcpy(row, values, sizeof(row));
                              return Status::OK();
                            });
  };
  Fuzz(target, 6);
}

/// Recomputes the payload CRC of each frame whose declared length fits in
/// the bytes after its header.
void ResealFrames(std::string* bytes) {
  size_t at = 0;
  while (at + dist::kFrameHeaderBytes <= bytes->size()) {
    uint32_t length = 0;
    std::memcpy(&length, bytes->data() + at + 12, sizeof(length));
    const size_t payload = at + dist::kFrameHeaderBytes;
    if (length > bytes->size() - payload) return;
    Poke(bytes, at + 16, 4, common::Crc32(bytes->data() + payload, length));
    at = payload + length;
  }
}

/// Replaces the contents of `fd` with `bytes` and rewinds it.
Status Refill(int fd, const std::string& bytes) {
  if (::ftruncate(fd, 0) != 0 || ::lseek(fd, 0, SEEK_SET) != 0) {
    return common::StatusFromErrno("cannot reset the frame file");
  }
  SGNN_RETURN_IF_ERROR(common::WriteFull(fd, bytes.data(), bytes.size()));
  if (::lseek(fd, 0, SEEK_SET) != 0) {
    return common::StatusFromErrno("cannot rewind the frame file");
  }
  return Status::OK();
}

TEST(FuzzTest, ReadFrame) {
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  const int fd = fileno(file);

  // A spawn's config and scatter frames then a go, and a lone epoch-done,
  // as WriteFrame puts them on the wire.
  std::vector<std::vector<dist::Frame>> streams(2);
  streams[0].push_back({dist::FrameType::kConfig, 0, RingSpec().Serialize()});
  streams[0].push_back({dist::FrameType::kRows, 0, RowBatch({0, 2, 4})});
  streams[0].push_back({dist::FrameType::kGo, 1, ""});
  streams[1].push_back({dist::FrameType::kEpochDone, 2, ""});
  Target target;
  for (const auto& frames : streams) {
    ASSERT_TRUE(Refill(fd, "").ok());
    std::vector<Field> fields;
    size_t at = 0;
    for (const dist::Frame& frame : frames) {
      ASSERT_TRUE(dist::WriteFrame(fd, frame).ok());
      fields.push_back({at + 4, 4});   // type
      fields.push_back({at + 12, 4});  // payload length
      at += dist::kFrameHeaderBytes + frame.payload.size();
    }
    std::string wire(at, '\0');
    ASSERT_EQ(::lseek(fd, 0, SEEK_SET), 0);
    ASSERT_TRUE(common::ReadFull(fd, wire.data(), wire.size(),
                                 common::Deadline::Infinite())
                    .ok());
    target.corpus.push_back(wire);
    target.fields.push_back(fields);
  }
  target.reseal = ResealFrames;
  target.decode = [fd](const std::string& input) {
    SGNN_RETURN_IF_ERROR(Refill(fd, input));
    for (;;) {  // Until the stream ends or breaks.
      dist::Frame frame;
      SGNN_RETURN_IF_ERROR(
          dist::ReadFrame(fd, &frame, common::Deadline::Infinite()));
    }
  };
  Fuzz(target, 7);
  std::fclose(file);
}

// ---- net: HTTP requests and infer request bodies -------------------------

constexpr char kInferBody[] =
    R"({"node":7,"tenant":"team-a","deadline_micros":5000})";

TEST(FuzzTest, HttpRequestParser) {
  const std::string post = net::SerializeRequest("POST", "/v1/infer",
                                                 kInferBody,
                                                 "application/json");
  const std::string get = net::SerializeRequest("GET", "/metrics", "", "");
  Target target;
  target.corpus = {post, get, post + get + post};
  target.decode = [](const std::string& input) {
    net::HttpRequestParser parser;
    const std::string_view bytes(input);
    SGNN_RETURN_IF_ERROR(parser.Feed(bytes.substr(0, bytes.size() / 2)));
    SGNN_RETURN_IF_ERROR(parser.Feed(bytes.substr(bytes.size() / 2)));
    net::HttpRequest request;
    while (parser.TakeRequest(&request)) {
    }
    return parser.OnEof();
  };
  Fuzz(target, 8);
}

TEST(FuzzTest, ParseInferRequest) {
  Target target;
  target.corpus = {kInferBody, R"({"node":0})",
                   R"({"tenant":"b","node":123456,"deadline_micros":1})"};
  target.decode = [](const std::string& input) {
    return net::ParseInferRequest(input).status();
  };
  Fuzz(target, 9);
}

// ---- text formats: edge lists and dataset files --------------------------

// A node count or id in an edge list is content, not a length: isolated
// nodes take no bytes, so no file size bounds them, and a graph that large
// is allowed to fail the allocation cap.
TEST(FuzzTest, LoadEdgeList) {
  const std::string path = TempPath("edges.txt");
  Target target;
  for (const graph::CsrGraph& g :
       {graph::ErdosRenyi(30, 80, 19), graph::ErdosRenyi(4, 3, 23)}) {
    ASSERT_TRUE(graph::SaveEdgeList(g, path).ok());
    target.corpus.push_back(ReadBytes(path));
  }
  target.allow_cap = true;
  target.decode = [&path](const std::string& input) {
    WriteBytes(path, input);
    return graph::LoadEdgeList(path).status();
  };
  Fuzz(target, 10);
  std::filesystem::remove(path);
}

/// Fuzzes one file of a saved dataset directory; the other files stay as
/// `SaveDataset` wrote them.
void FuzzDatasetFile(const std::string& name, uint64_t seed) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = 40, .num_classes = 3, .avg_degree = 4,
                .homophily = 0.8};
  config.feature_dim = 4;
  const std::string dir = TempPath("dataset_" + name);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(core::SaveDataset(core::MakeSbmDataset(config, 29), dir).ok());
  const std::string path = dir + "/" + name;
  Target target;
  target.corpus = {ReadBytes(path)};
  target.decode = [&](const std::string& input) {
    WriteBytes(path, input);
    return core::LoadDataset(dir).status();
  };
  Fuzz(target, seed);
  std::filesystem::remove_all(dir);
}

TEST(FuzzTest, LoadDatasetFeatures) { FuzzDatasetFile("features.txt", 11); }
TEST(FuzzTest, LoadDatasetLabels) { FuzzDatasetFile("labels.txt", 12); }
TEST(FuzzTest, LoadDatasetSplits) { FuzzDatasetFile("splits.txt", 13); }

}  // namespace
}  // namespace sgnn
