#include "core/dataset_io.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "graph/io.h"

namespace sgnn::core {

using common::Status;
using common::StatusOr;

namespace {

// A value in a text file takes at least two bytes, a digit and a
// separator (the last one may end the file), so the file size bounds
// every count a header declares before that count sizes anything.
uint64_t MaxTextValues(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : (static_cast<uint64_t>(bytes) + 1) / 2;
}

Status WriteFeatures(const tensor::Matrix& features, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << features.rows() << ' ' << features.cols() << '\n';
  for (int64_t r = 0; r < features.rows(); ++r) {
    auto row = features.Row(r);
    for (int64_t c = 0; c < features.cols(); ++c) {
      out << row[c] << (c + 1 < features.cols() ? ' ' : '\n');
    }
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<tensor::Matrix> ReadFeatures(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  int64_t rows = 0, cols = 0;
  if (!(in >> rows >> cols) || rows < 0 || cols < 0) {
    return Status::InvalidArgument("bad features header in " + path);
  }
  // Bounding rows by the values per column keeps rows x cols from
  // overflowing; a matrix without columns allocates nothing.
  if (cols > 0 && static_cast<uint64_t>(rows) >
                      MaxTextValues(path) / static_cast<uint64_t>(cols)) {
    return Status::InvalidArgument(
        "features header claims " + std::to_string(rows) + " x " +
        std::to_string(cols) + " values, more than " + path + " holds");
  }
  tensor::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (!(in >> m.data()[i])) {
      return Status::InvalidArgument("truncated features in " + path);
    }
  }
  return m;
}

Status WriteLabels(const std::vector<int>& labels, int num_classes,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << labels.size() << ' ' << num_classes << '\n';
  for (int label : labels) out << label << '\n';
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status WriteSplits(const models::NodeSplits& splits, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  auto write_part = [&out](const char* name,
                           const std::vector<graph::NodeId>& part) {
    out << name << ' ' << part.size();
    for (graph::NodeId u : part) out << ' ' << u;
    out << '\n';
  };
  write_part("train", splits.train);
  write_part("val", splits.val);
  write_part("test", splits.test);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<std::vector<graph::NodeId>> ReadPart(std::istream& in,
                                              const std::string& expected,
                                              uint64_t max_values) {
  std::string name;
  uint64_t count = 0;
  if (!(in >> name >> count) || name != expected) {
    return Status::InvalidArgument("bad splits section, expected " + expected);
  }
  if (count > max_values) {
    return Status::InvalidArgument(
        "splits section " + expected + " claims " + std::to_string(count) +
        " ids, more than the file holds");
  }
  std::vector<graph::NodeId> part(count);
  for (graph::NodeId& u : part) {
    uint64_t v = 0;
    if (!(in >> v)) {
      return Status::InvalidArgument("truncated splits section " + expected);
    }
    if (v >= graph::kInvalidNode) {
      return Status::InvalidArgument("split node id out of range");
    }
    u = static_cast<graph::NodeId>(v);
  }
  return part;
}

}  // namespace

Status SaveDataset(const Dataset& dataset, const std::string& dir) {
  SGNN_RETURN_IF_ERROR(graph::SaveEdgeList(dataset.graph, dir + "/graph.txt"));
  SGNN_RETURN_IF_ERROR(WriteFeatures(dataset.features, dir + "/features.txt"));
  SGNN_RETURN_IF_ERROR(
      WriteLabels(dataset.labels, dataset.num_classes, dir + "/labels.txt"));
  return WriteSplits(dataset.splits, dir + "/splits.txt");
}

StatusOr<Dataset> LoadDataset(const std::string& dir) {
  Dataset dataset;

  auto graph = graph::LoadEdgeList(dir + "/graph.txt");
  if (!graph.ok()) return graph.status();
  dataset.graph = std::move(graph).value();

  auto features = ReadFeatures(dir + "/features.txt");
  if (!features.ok()) return features.status();
  dataset.features = std::move(features).value();

  {
    const std::string path = dir + "/labels.txt";
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot open for read: " + path);
    uint64_t count = 0;
    if (!(in >> count >> dataset.num_classes) || dataset.num_classes <= 0) {
      return Status::InvalidArgument("bad labels header in " + path);
    }
    if (count > MaxTextValues(path)) {
      return Status::InvalidArgument("labels header claims " +
                                     std::to_string(count) +
                                     " labels, more than " + path + " holds");
    }
    dataset.labels.resize(count);
    for (size_t i = 0; i < count; ++i) {
      if (!(in >> dataset.labels[i])) {
        return Status::InvalidArgument("truncated labels in " + path);
      }
      if (dataset.labels[i] < 0 || dataset.labels[i] >= dataset.num_classes) {
        return Status::InvalidArgument("label out of range in " + path);
      }
    }
  }

  {
    const std::string path = dir + "/splits.txt";
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot open for read: " + path);
    const uint64_t max_values = MaxTextValues(path);
    auto train = ReadPart(in, "train", max_values);
    if (!train.ok()) return train.status();
    auto val = ReadPart(in, "val", max_values);
    if (!val.ok()) return val.status();
    auto test = ReadPart(in, "test", max_values);
    if (!test.ok()) return test.status();
    dataset.splits.train = std::move(train).value();
    dataset.splits.val = std::move(val).value();
    dataset.splits.test = std::move(test).value();
  }

  // Cross-file consistency.
  const auto n = static_cast<int64_t>(dataset.graph.num_nodes());
  if (dataset.features.rows() != n) {
    return Status::InvalidArgument("features row count != graph nodes");
  }
  if (static_cast<int64_t>(dataset.labels.size()) != n) {
    return Status::InvalidArgument("label count != graph nodes");
  }
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (const auto* part :
       {&dataset.splits.train, &dataset.splits.val, &dataset.splits.test}) {
    for (graph::NodeId u : *part) {
      if (static_cast<int64_t>(u) >= n) {
        return Status::InvalidArgument("split node id out of range");
      }
      if (seen[u]) return Status::InvalidArgument("overlapping splits");
      seen[u] = true;
    }
  }
  return dataset;
}

}  // namespace sgnn::core
