#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <type_traits>

#include "analysis/validate.h"
#include "common/crc32.h"

namespace sgnn::core {

using common::Status;
using common::StatusOr;

namespace {

constexpr char kMagic[8] = {'S', 'G', 'N', 'N', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 1;

// ---- little serialisation helpers over a growable byte buffer ----------

void PutBytes(std::string* buf, const void* data, size_t n) {
  buf->append(static_cast<const char*>(data), n);
}

template <typename T>
void PutPod(std::string* buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(buf, &v, sizeof(v));
}

void PutString(std::string* buf, const std::string& s) {
  PutPod<uint32_t>(buf, static_cast<uint32_t>(s.size()));
  PutBytes(buf, s.data(), s.size());
}

/// Bounds-checked forward reader over the loaded snapshot bytes. Every
/// getter reports underrun through `ok`, so a truncated file surfaces as a
/// framing error instead of undefined behaviour.
struct Cursor {
  const char* p;
  size_t left;
  bool ok = true;

  bool Take(void* out, size_t n) {
    if (!ok || n > left) {
      ok = false;
      return false;
    }
    if (n != 0) std::memcpy(out, p, n);  // Empty vectors may have null data().
    p += n;
    left -= n;
    return true;
  }

  template <typename T>
  T Pod() {
    T v{};
    Take(&v, sizeof(v));
    return v;
  }

  std::string Str() {
    const uint32_t n = Pod<uint32_t>();
    if (!ok || n > left) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    left -= n;
    return s;
  }
};

std::string Serialize(const PipelineSnapshot& snap) {
  std::string buf;
  PutBytes(&buf, kMagic, sizeof(kMagic));
  PutPod<uint32_t>(&buf, kVersion);
  PutPod<uint64_t>(&buf, snap.signature);
  PutPod<int32_t>(&buf, snap.stages_done);

  PutPod<uint32_t>(&buf, static_cast<uint32_t>(snap.stages.size()));
  for (const StageTiming& stage : snap.stages) {
    PutString(&buf, stage.name);
    PutPod<double>(&buf, stage.seconds);
    PutPod<uint64_t>(&buf, stage.ops.edges_touched);
    PutPod<uint64_t>(&buf, stage.ops.floats_moved);
    PutPod<uint64_t>(&buf, stage.ops.peak_resident_floats);
    PutPod<uint64_t>(&buf, stage.ops.resident_floats);
  }

  PutPod<int64_t>(&buf, snap.edges_before);
  PutPod<int64_t>(&buf, snap.feature_cols_before);

  PutPod<uint32_t>(&buf, snap.graph.num_nodes());
  const std::vector<graph::Edge> edges = snap.graph.ToEdges();
  PutPod<uint64_t>(&buf, static_cast<uint64_t>(edges.size()));
  for (const graph::Edge& e : edges) {
    PutPod<uint32_t>(&buf, e.src);
    PutPod<uint32_t>(&buf, e.dst);
    PutPod<float>(&buf, e.weight);  // Raw bits: resume is bit-identical.
  }

  PutPod<int64_t>(&buf, snap.features.rows());
  PutPod<int64_t>(&buf, snap.features.cols());
  PutBytes(&buf, snap.features.data(),
           static_cast<size_t>(snap.features.size()) * sizeof(float));
  return buf;
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
  std::string payload = Serialize(snapshot);
  const uint32_t crc = common::Crc32(payload.data(), payload.size());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open for write: " + tmp);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!out) return Status::IOError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

StatusOr<PipelineSnapshot> LoadSnapshot(const std::string& path,
                                        uint64_t expected_signature) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no snapshot at " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed: " + path);
  }
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Corrupt(path, "truncated");
  }

  const size_t payload_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + payload_size, sizeof(stored_crc));
  if (common::Crc32(bytes.data(), payload_size) != stored_crc) {
    return Corrupt(path, "CRC mismatch");
  }

  Cursor cur{bytes.data(), payload_size};
  char magic[sizeof(kMagic)];
  cur.Take(magic, sizeof(magic));
  if (!cur.ok || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  if (cur.Pod<uint32_t>() != kVersion) {
    return Corrupt(path, "unsupported version");
  }

  PipelineSnapshot snap;
  snap.signature = cur.Pod<uint64_t>();
  if (cur.ok && snap.signature != expected_signature) {
    return Status::FailedPrecondition(
        "snapshot " + path + " belongs to a different pipeline");
  }
  snap.stages_done = cur.Pod<int32_t>();

  const uint32_t num_stages = cur.Pod<uint32_t>();
  for (uint32_t i = 0; cur.ok && i < num_stages; ++i) {
    StageTiming stage;
    stage.name = cur.Str();
    stage.seconds = cur.Pod<double>();
    stage.ops.edges_touched = cur.Pod<uint64_t>();
    stage.ops.floats_moved = cur.Pod<uint64_t>();
    stage.ops.peak_resident_floats = cur.Pod<uint64_t>();
    stage.ops.resident_floats = cur.Pod<uint64_t>();
    snap.stages.push_back(std::move(stage));
  }

  snap.edges_before = cur.Pod<int64_t>();
  snap.feature_cols_before = cur.Pod<int64_t>();

  const uint32_t num_nodes = cur.Pod<uint32_t>();
  const uint64_t num_edges = cur.Pod<uint64_t>();
  constexpr size_t kEdgeBytes = 2 * sizeof(uint32_t) + sizeof(float);
  if (!cur.ok || num_edges > cur.left / kEdgeBytes) {
    return Corrupt(path, "bad edge count");
  }
  std::vector<graph::Edge> edges;
  edges.reserve(num_edges);
  for (uint64_t i = 0; cur.ok && i < num_edges; ++i) {
    graph::Edge e;
    e.src = cur.Pod<uint32_t>();
    e.dst = cur.Pod<uint32_t>();
    e.weight = cur.Pod<float>();
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Corrupt(path, "edge endpoint out of range");
    }
    edges.push_back(e);
  }

  const int64_t rows = cur.Pod<int64_t>();
  const int64_t cols = cur.Pod<int64_t>();
  // Bound rows by the bytes left before multiplying, so a forged size
  // cannot wrap 64 bits into a match and then size the allocation.
  const uint64_t max_floats = cur.left / sizeof(float);
  if (!cur.ok || rows < 0 || cols < 0 ||
      (cols > 0 && static_cast<uint64_t>(rows) >
                       max_floats / static_cast<uint64_t>(cols)) ||
      static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) *
              sizeof(float) !=
          cur.left) {
    return Corrupt(path, "bad feature dimensions");
  }
  snap.features = tensor::Matrix(rows, cols);
  cur.Take(snap.features.data(),
           static_cast<size_t>(snap.features.size()) * sizeof(float));
  if (!cur.ok) return Corrupt(path, "truncated payload");

  snap.graph = graph::CsrGraph::FromEdges(num_nodes, std::move(edges));
  if (snap.stages_done < 0 ||
      static_cast<size_t>(snap.stages_done) > snap.stages.size()) {
    return Corrupt(path, "inconsistent stage count");
  }
  return snap;
}

Status ValidateCheckpointFile(const std::string& path,
                              uint64_t expected_signature) {
  auto snapshot = LoadSnapshot(path, expected_signature);
  if (!snapshot.ok()) return snapshot.status();
  return analysis::ValidateCheckpoint(snapshot.value(), expected_signature);
}

}  // namespace sgnn::core
