#include "core/checkpoint.h"

#include <cstring>

#include "common/bytes.h"

namespace sgnn::core {

using common::Status;
using common::StatusOr;

namespace {

constexpr char kMagic[8] = {'S', 'G', 'N', 'N', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 2;

std::string Serialize(const PipelineSnapshot& snap) {
  common::ByteWriter w;
  w.Bytes(kMagic, sizeof(kMagic));
  w.Pod<uint32_t>(kVersion);
  w.Pod<uint64_t>(snap.signature);
  w.Pod<int32_t>(snap.stages_done);

  w.Pod<uint32_t>(static_cast<uint32_t>(snap.stages.size()));
  for (const StageTiming& stage : snap.stages) {
    w.Str(stage.name);
    w.Pod<double>(stage.seconds);
    w.Pod<uint64_t>(stage.ops.edges_touched);
    w.Pod<uint64_t>(stage.ops.floats_moved);
    w.Pod<uint64_t>(stage.ops.bytes_read);
    w.Pod<uint64_t>(stage.ops.bytes_written);
    w.Pod<uint64_t>(stage.ops.peak_resident_floats);
    w.Pod<uint64_t>(stage.ops.resident_floats);
  }

  w.Pod<int64_t>(snap.edges_before);
  w.Pod<int64_t>(snap.feature_cols_before);

  w.Pod<uint32_t>(snap.graph.num_nodes());
  const std::vector<graph::Edge> edges = snap.graph.ToEdges();
  w.Pod<uint64_t>(static_cast<uint64_t>(edges.size()));
  for (const graph::Edge& e : edges) {
    w.Pod<uint32_t>(e.src);
    w.Pod<uint32_t>(e.dst);
    w.Pod<float>(e.weight);  // Raw bits: resume is bit-identical.
  }

  w.Pod<int64_t>(snap.features.rows());
  w.Pod<int64_t>(snap.features.cols());
  w.Bytes(snap.features.data(),
          static_cast<size_t>(snap.features.size()) * sizeof(float));
  w.CrcTrailer();
  return w.Release();
}

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::IOError("corrupt snapshot " + path + ": " + why);
}

}  // namespace

uint64_t PipelineSignature(const std::vector<std::string>& stage_names,
                           const std::string& model_name) {
  // FNV-1a over the framed name sequence; framing (length prefix) keeps
  // {"ab","c"} distinct from {"a","bc"}.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    h = (h ^ s.size()) * 1099511628211ull;
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  };
  for (const std::string& name : stage_names) mix(name);
  mix(model_name);
  return h;
}

Status SaveSnapshot(const PipelineSnapshot& snapshot,
                    const std::string& path) {
  return common::WriteFileAtomic(path, Serialize(snapshot));
}

StatusOr<PipelineSnapshot> LoadSnapshot(const std::string& path,
                                        uint64_t expected_signature) {
  auto bytes_or = common::ReadFile(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();
  if (bytes.size() < sizeof(kMagic) + common::kCrcTrailerBytes) {
    return Corrupt(path, "truncated");
  }
  if (!common::CheckCrcTrailer(bytes)) return Corrupt(path, "CRC mismatch");

  common::ByteReader in(bytes.data(), bytes.size() - common::kCrcTrailerBytes);
  const char* magic = in.Take(sizeof(kMagic));
  if (!in.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  if (in.Pod<uint32_t>() != kVersion) {
    return Corrupt(path, "unsupported version");
  }

  PipelineSnapshot snap;
  snap.signature = in.Pod<uint64_t>();
  if (in.ok() && snap.signature != expected_signature) {
    return Status::FailedPrecondition(
        "snapshot " + path + " belongs to a different pipeline");
  }
  snap.stages_done = in.Pod<int32_t>();

  const uint32_t num_stages = in.Pod<uint32_t>();
  for (uint32_t i = 0; in.ok() && i < num_stages; ++i) {
    StageTiming stage;
    stage.name = in.Str();
    stage.seconds = in.Pod<double>();
    stage.ops.edges_touched = in.Pod<uint64_t>();
    stage.ops.floats_moved = in.Pod<uint64_t>();
    stage.ops.bytes_read = in.Pod<uint64_t>();
    stage.ops.bytes_written = in.Pod<uint64_t>();
    stage.ops.peak_resident_floats = in.Pod<uint64_t>();
    stage.ops.resident_floats = in.Pod<uint64_t>();
    snap.stages.push_back(std::move(stage));
  }

  snap.edges_before = in.Pod<int64_t>();
  snap.feature_cols_before = in.Pod<int64_t>();

  const uint32_t num_nodes = in.Pod<uint32_t>();
  const uint64_t num_edges = in.Pod<uint64_t>();
  constexpr size_t kEdgeBytes = 2 * sizeof(uint32_t) + sizeof(float);
  if (!in.Fits(num_edges, kEdgeBytes)) return Corrupt(path, "bad edge count");
  std::vector<graph::Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    graph::Edge e;
    e.src = in.Pod<uint32_t>();
    e.dst = in.Pod<uint32_t>();
    e.weight = in.Pod<float>();
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Corrupt(path, "edge endpoint out of range");
    }
    edges.push_back(e);
  }

  const int64_t rows = in.Pod<int64_t>();
  const int64_t cols = in.Pod<int64_t>();
  // Every row carries at least one float, and rows x cols floats must be
  // exactly the bytes left; bounding rows, then cols by the row bytes,
  // keeps the product from wrapping 64 bits into a match.
  if (!in.ok() || rows < 0 || cols < 0 ||
      !in.Fits(static_cast<uint64_t>(rows), sizeof(float)) ||
      (rows > 0 && !in.Fits(static_cast<uint64_t>(cols),
                            static_cast<uint64_t>(rows) * sizeof(float))) ||
      static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) *
              sizeof(float) !=
          in.left()) {
    return Corrupt(path, "bad feature dimensions");
  }
  // One feature row per node, or no nodes at all (the dist coordinator
  // checkpoints its state matrix without a graph): the node count is then
  // bounded by the file too before it sizes the graph.
  if (num_nodes != 0 && num_nodes != static_cast<uint64_t>(rows)) {
    return Corrupt(path, "node count " + std::to_string(num_nodes) +
                             " does not match " + std::to_string(rows) +
                             " feature rows");
  }
  snap.features = tensor::Matrix(rows, cols);
  in.Take(snap.features.data(),
          static_cast<size_t>(snap.features.size()) * sizeof(float));

  snap.graph = graph::CsrGraph::FromEdges(num_nodes, std::move(edges));
  if (snap.stages_done < 0 ||
      static_cast<size_t>(snap.stages_done) > snap.stages.size()) {
    return Corrupt(path, "inconsistent stage count");
  }
  return snap;
}

}  // namespace sgnn::core
