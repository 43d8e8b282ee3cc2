#ifndef SGNN_COMMON_RNG_H_
#define SGNN_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace sgnn::common {

/// SplitMix64 finaliser: a strong, cheap 64-bit bit mixer. The primitive
/// behind keyed stream derivation — every bit of the input affects every
/// bit of the output, so nearby keys give decorrelated streams.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derives the key of an independent stream from a (base, key) pair.
/// Parallel kernels key one `KeyedStream` per work item as
/// `KeyedStream(MixSeed(base, item))`: the stream depends only on the pair,
/// never on which thread or in what order the item runs — the property
/// that makes sampling results independent of the worker count.
inline uint64_t MixSeed(uint64_t base, uint64_t key) {
  return SplitMix64(base ^ SplitMix64(key));
}

/// Uniform double in [0, 1) as a pure function of (base, key); the shared
/// per-vertex variate of LABOR-style samplers. 53-bit resolution.
inline double KeyedUniform(uint64_t base, uint64_t key) {
  return static_cast<double>(MixSeed(base, key) >> 11) * 0x1.0p-53;
}

/// Counter-based keyed stream (Salmon et al., "Parallel Random Numbers: As
/// Easy as 1, 2, 3", SC'11): output i of key k is
/// `SplitMix64(k + i * 0x9E3779B97F4A7C15)`, a pure function of (k, i).
/// There is no engine state to seed or twist, so a hot loop can give each
/// work item its own stream, or each element its own output, for three
/// multiplies, and no result depends on which thread asks or in what
/// order. Bits become numbers only through the explicit arithmetic here
/// and at the call sites, never through `std::*_distribution`, whose
/// outputs the standard leaves to the library.
class KeyedStream {
 public:
  explicit KeyedStream(uint64_t key) : key_(key) {}

  /// Output i of the stream.
  uint64_t At(uint64_t i) const {
    return SplitMix64(key_ + i * 0x9E3779B97F4A7C15ULL);
  }

  /// The next output of a cursor over At(0), At(1), ...
  uint64_t Next() { return At(next_++); }

  /// Exactly uniform integer in [0, n): Lemire's multiply-high reduction
  /// ("Fast Random Integer Generation in an Interval", 2019), rejecting the
  /// 2^64 mod n low products that would over-represent small results.
  /// Consumes one output, or more with probability below n / 2^64.
  /// Requires n > 0.
  uint64_t Below(uint64_t n) {
    SGNN_DCHECK(n > 0);
    unsigned __int128 product = static_cast<unsigned __int128>(Next()) * n;
    if (static_cast<uint64_t>(product) < n) {
      const uint64_t reject_below = (uint64_t{0} - n) % n;  // 2^64 mod n.
      while (static_cast<uint64_t>(product) < reject_below) {
        product = static_cast<unsigned __int128>(Next()) * n;
      }
    }
    return static_cast<uint64_t>(product >> 64);
  }

 private:
  uint64_t key_;
  uint64_t next_ = 0;
};

/// Deterministic random number generator used throughout the library.
///
/// Every stochastic component (generators, samplers, initialisers) takes an
/// explicit 64-bit seed and derives an `Rng`, so any run of the library is
/// reproducible bit-for-bit given the seed. Hot per-item and per-element
/// draws (node-wise sampling, dropout) take one engine output as the key
/// of a `KeyedStream` instead of drawing from the engine item by item.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    SGNN_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    SGNN_DCHECK(n > 0);
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal draw scaled to N(mean, stddev^2).
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly (k <= n), in
  /// unspecified order. Uses Floyd's algorithm for k << n.
  std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k);

  /// Draws an index from an unnormalised non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Forks a child generator whose stream is decorrelated from this one;
  /// used to give parallel or per-item components independent streams.
  Rng Fork() { return Rng(engine_() ^ 0x9E3779B97F4A7C15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sgnn::common

#endif  // SGNN_COMMON_RNG_H_
