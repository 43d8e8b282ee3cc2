#include "scaleout.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/rng.h"
#include "common/status.h"
#include "core/run_context.h"
#include "dist/coordinator.h"
#include "graph/propagate.h"
#include "ppr/ppr.h"
#include "storage/ooc.h"
#include "storage/shard_writer.h"
#include "storage/sharded_graph.h"

namespace sgnnbench {

namespace graph = sgnn::graph;
namespace storage = sgnn::storage;
namespace tensor = sgnn::tensor;
using sgnn::common::Status;
using sgnn::common::StatusOr;

namespace {

constexpr graph::Normalization kNorm = graph::Normalization::kSymmetric;
constexpr int kNumShards = 16;
constexpr uint64_t kBudgetDivisor = 4;  // Budget = shard bytes / 4.
constexpr int kNumWorkers = 4;
constexpr int kNumPushSeeds = 32;
constexpr double kAlpha = 0.15;
constexpr double kRMax = 1e-3;

void Report(const char* what, const Status& status) {
  std::fprintf(stderr, "sgnn-bench: %s: %s\n", what, status.ToString().c_str());
}

StatusOr<std::unique_ptr<storage::ShardedGraph>> OpenShards(
    const ScaleoutInputs& in) {
  storage::OpenOptions options;
  options.budget_bytes = in.budget_bytes;
  return storage::ShardedGraph::Open(in.shard_dir, options);
}

/// S^K X out of core, from a cold cache; `stats` gets the cache counters.
StatusOr<tensor::Matrix> OocPropagate(const ScaleoutInputs& in, int hops,
                                      storage::StorageStats* stats) {
  auto sg_or = OpenShards(in);
  if (!sg_or.ok()) return sg_or.status();
  storage::ShardedGraph& sg = *sg_or.value();
  auto prop_or = storage::OocPropagator::Create(&sg, kNorm, true);
  if (!prop_or.ok()) return prop_or.status();
  tensor::Matrix cur = *in.features, next;
  for (int h = 0; h < hops; ++h) {
    Span span("storage.ooc_hop");
    SGNN_RETURN_IF_ERROR(prop_or.value().Apply(cur, &next));
    std::swap(cur, next);
  }
  if (stats != nullptr) *stats = sg.stats();
  return cur;
}

StatusOr<std::vector<sgnn::ppr::PushResult>> OocPush(
    const ScaleoutInputs& in, storage::StorageStats* stats) {
  auto sg_or = OpenShards(in);
  if (!sg_or.ok()) return sg_or.status();
  auto result =
      storage::PushBatch(sg_or.value().get(), in.push_seeds, kAlpha, kRMax);
  if (stats != nullptr) *stats = sg_or.value()->stats();
  return result;
}

StatusOr<tensor::Matrix> DistPropagate(const ScaleoutInputs& in, int hops,
                                       sgnn::dist::DistReport* report) {
  sgnn::dist::DistOptions opts;
  opts.hops = hops;
  opts.norm = kNorm;
  opts.add_self_loops = true;
  return sgnn::dist::RunDistributedPropagation(
      *in.graph, in.parts, *in.features, opts, sgnn::core::RunContext(),
      report);
}

bool SameBytes(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool SamePushes(const std::vector<sgnn::ppr::PushResult>& a,
                const std::vector<sgnn::ppr::PushResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pushes != b[i].pushes || a[i].estimate.size() != b[i].estimate.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].estimate.size(); ++j) {
      const auto& [u, p] = a[i].estimate[j];
      const auto& [v, q] = b[i].estimate[j];
      if (u != v || std::memcmp(&p, &q, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

}  // namespace

bool PrepareScaleout(const graph::CsrGraph& g, const tensor::Matrix& features,
                     const std::string& shard_dir, uint64_t seed,
                     ScaleoutInputs* out) {
  out->graph = &g;
  out->features = &features;
  out->shard_dir = shard_dir;
  {
    Span span("storage.write_shards");
    const Status written = storage::WriteShardedGraph(
        g, storage::ShardPlan::Contiguous(g, kNumShards), shard_dir);
    if (!written.ok()) {
      Report("writing shards", written);
      return false;
    }
  }
  storage::OpenOptions probe;
  probe.budget_bytes = storage::kUnlimitedBudget;
  auto sg_or = storage::ShardedGraph::Open(shard_dir, probe);
  if (!sg_or.ok()) {
    Report("opening shards", sg_or.status());
    return false;
  }
  out->total_shard_bytes = sg_or.value()->total_shard_bytes();
  out->budget_bytes = out->total_shard_bytes / kBudgetDivisor;
  {
    Span span("partition.build");
    out->parts = sgnn::partition::LdgPartition(g, kNumWorkers, 1.05, seed);
    out->partition_build_s = span.Seconds();
  }
  out->edge_cut = sgnn::partition::EvaluatePartition(g, out->parts).edge_cut;
  sgnn::common::Rng rng(seed ^ 0x5eed5);
  out->push_seeds.clear();
  for (int i = 0; i < kNumPushSeeds; ++i) {
    out->push_seeds.push_back(
        static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes())));
  }
  return true;
}

bool RunScaleoutRound(const ScaleoutInputs& in) {
  {
    Span span("scaleout.ooc_propagate");
    auto result = OocPropagate(in, kScaleoutHops, nullptr);
    if (!result.ok()) {
      Report("out-of-core propagate", result.status());
      return false;
    }
  }
  {
    Span span("scaleout.ooc_ppr");
    auto result = OocPush(in, nullptr);
    if (!result.ok()) {
      Report("out-of-core push", result.status());
      return false;
    }
  }
  {
    Span span("scaleout.dist_propagate");
    auto result = DistPropagate(in, kScaleoutHops, nullptr);
    if (!result.ok()) {
      Report("distributed propagate", result.status());
      return false;
    }
  }
  return true;
}

void CheckScaleout(const ScaleoutInputs& in, Checks* checks) {
  const graph::Propagator prop(*in.graph, kNorm, true);
  const tensor::Matrix want =
      graph::PropagateKHops(prop, *in.features, kScaleoutHops);
  const std::vector<sgnn::ppr::PushResult> want_push =
      sgnn::ppr::PushBatch(*in.graph, in.push_seeds, kAlpha, kRMax);

  auto ooc = OocPropagate(in, kScaleoutHops, nullptr);
  checks->Expect(ooc.ok() && SameBytes(ooc.value(), want),
                 "out-of-core S^K X is byte-identical to PropagateKHops");
  auto push = OocPush(in, nullptr);
  checks->Expect(push.ok() && SamePushes(push.value(), want_push),
                 "out-of-core PushBatch is identical to ppr::PushBatch");
  sgnn::dist::DistReport report;
  auto dist = DistPropagate(in, kScaleoutHops, &report);
  checks->Expect(dist.ok() && SameBytes(dist.value(), want),
                 "distributed S^K X is byte-identical to PropagateKHops");
  checks->Expect(report.respawns == 0, "distributed run needed no respawns");
}

void ProbeScaleout(const ScaleoutInputs& in, Metrics* out, Checks* checks) {
  const int hops = kScaleoutHops;
  const double total = static_cast<double>(in.total_shard_bytes);

  // Cold fault-in: pin and release every shard once on a fresh open.
  {
    auto sg_or = OpenShards(in);
    bool pinned = sg_or.ok();
    Span span("storage.fault_in");
    for (int s = 0; pinned && s < sg_or.value()->num_shards(); ++s) {
      pinned = sg_or.value()->PinShard(s).ok();
    }
    out->Set("storage.fault_in_s", span.Seconds(), "s");
    checks->Expect(pinned, "every shard faults in");
  }

  storage::StorageStats stats;
  double t = 0.0;
  {
    Span span("scaleout.ooc_propagate");
    const bool ok = OocPropagate(in, hops, &stats).ok();
    t = span.Seconds();
    checks->Expect(ok, "out-of-core propagate succeeds");
  }
  out->Set("ooc_propagate_s", t, "s");
  out->Set("storage.ooc_hop_s", t / hops, "s");
  out->Set("storage.loads", static_cast<double>(stats.loads), "count");
  out->Set("storage.evictions", static_cast<double>(stats.evictions), "count");
  out->Set("storage.reload_ratio",
           static_cast<double>(stats.bytes_loaded) / (hops * total), "ratio");
  out->Set("storage.peak_resident_bytes",
           static_cast<double>(stats.peak_resident_bytes), "bytes");

  {
    Span span("scaleout.ooc_ppr");
    const bool ok = OocPush(in, &stats).ok();
    out->Set("ooc_ppr_s", span.Seconds(), "s");
    checks->Expect(ok, "out-of-core push batch succeeds");
  }
  out->Set("storage.ppr_loads", static_cast<double>(stats.loads), "count");
  {
    Span span("ppr.push_batch");
    const auto result =
        sgnn::ppr::PushBatch(*in.graph, in.push_seeds, kAlpha, kRMax);
    out->Set("ppr.push_s", span.Seconds(), "s");
  }

  out->Set("partition.build_s", in.partition_build_s, "s");
  out->Set("partition.edge_cut", static_cast<double>(in.edge_cut), "count");

  // Fixed cost (spawn, scatter, gather) and per-epoch cost, split from a
  // one-hop and a K-hop run.
  sgnn::dist::DistReport one, full;
  double t1 = 0.0, tk = 0.0;
  {
    Span span("scaleout.dist_propagate_1hop");
    const bool ok = DistPropagate(in, 1, &one).ok();
    t1 = span.Seconds();
    checks->Expect(ok, "one-hop distributed propagate succeeds");
  }
  {
    Span span("scaleout.dist_propagate");
    const bool ok = DistPropagate(in, hops, &full).ok();
    tk = span.Seconds();
    checks->Expect(ok, "distributed propagate succeeds");
  }
  checks->Expect(one.respawns + full.respawns == 0,
                 "distributed probe runs needed no respawns");
  const double epoch_s = hops > 1 ? (tk - t1) / (hops - 1) : tk;
  out->Set("dist_propagate_s", tk, "s");
  out->Set("dist.epoch_s", epoch_s, "s");
  out->Set("dist.fixed_s", t1 - epoch_s, "s");
  out->Set("dist.halo_bytes", static_cast<double>(full.halo_bytes), "bytes");
  out->Set("dist.gather_bytes", static_cast<double>(full.gather_bytes), "bytes");
  out->Set("dist.frames",
           static_cast<double>(full.frames_sent + full.frames_received), "count");
  out->Set("dist.respawns", static_cast<double>(full.respawns + one.respawns),
           "count");
}

}  // namespace sgnnbench
