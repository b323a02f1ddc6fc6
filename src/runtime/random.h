// Seeded randomness for deterministic simulations.
//
// All nondeterminism in the reproduction (network jitter, loss injection,
// signal noise) flows from explicitly seeded generators so that every test
// and benchmark is exactly reproducible.
#ifndef PANDORA_SRC_RUNTIME_RANDOM_H_
#define PANDORA_SRC_RUNTIME_RANDOM_H_

#include <cstdint>
#include <random>

namespace pandora {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1).
  double Uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  bool Bernoulli(double p) {
    if (p <= 0.0) {
      return false;
    }
    if (p >= 1.0) {
      return true;
    }
    return std::bernoulli_distribution(p)(engine_);
  }

  // Derives an independent generator (for per-stream noise sources).
  Rng Fork() { return Rng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_RANDOM_H_
