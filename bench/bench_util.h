#ifndef SGNN_BENCH_BENCH_UTIL_H_
#define SGNN_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "nn/trainer.h"

namespace sgnn::bench {

/// Standard benchmark dataset: homophilous SBM with prototype features.
inline core::Dataset MakeBenchDataset(graph::NodeId num_nodes,
                                      int num_classes, double avg_degree,
                                      double homophily, uint64_t seed) {
  core::SbmDatasetConfig config;
  config.sbm = {.num_nodes = num_nodes, .num_classes = num_classes,
                .avg_degree = avg_degree, .homophily = homophily};
  config.feature_dim = 16;
  config.feature_noise = 0.6;
  return core::MakeSbmDataset(config, seed);
}

/// Training budget used across benches (small enough to keep the whole
/// suite in minutes, large enough that accuracy differences are real).
inline nn::TrainConfig BenchTrainConfig() {
  nn::TrainConfig config;
  config.epochs = 40;
  config.hidden_dim = 32;
  config.patience = 15;
  config.lr = 0.02;
  return config;
}

/// The path a `--json` or `--json=<path>` argument asks for
/// (`default_path` for the bare flag); nullopt when neither is given.
inline std::optional<std::string> JsonPathArg(
    int argc, char** argv, const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return std::nullopt;
}

/// Writes a bench's `--json` file: the `header` string members, then a
/// "results" array holding each of `rows` (a complete json object) on its
/// own line, then prints "wrote <path>". False, after printing why, when
/// the file cannot be written.
inline bool WriteJson(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& header,
    const std::vector<std::string>& rows) {
  std::string json = "{\n";
  for (const auto& [key, value] : header) {
    json += "  \"" + key + "\": \"" + value + "\",\n";
  }
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += "    " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json += "  ]\n}\n";
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << json;
  out.close();
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace sgnn::bench

#endif  // SGNN_BENCH_BENCH_UTIL_H_
