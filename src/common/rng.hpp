// Small, fast, reproducible PRNG (xoshiro256** seeded via splitmix64).
// Deterministic across platforms so simulations replay exactly by seed.
#pragma once

#include <cstdint>

namespace dfsim {

/// splitmix64 step; used to expand a single seed into xoshiro state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** by Blackman & Vigna; public-domain reference algorithm.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    // Lemire's nearly-divisionless method (acceptable modulo bias is
    // rejected, so the distribution is exact).
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform_real() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform_real() < p; }

  /// Derive an independent stream (e.g. one per terminal) from this one.
  /// The child key is routed through a splitmix64 finalizer step so that
  /// near-equal parent draws (low-entropy counters, adjacent seeds) can't
  /// hand the child ctor correlated state.
  Rng split() {
    std::uint64_t sm = next_u64();
    return Rng(splitmix64(sm));
  }

  /// Checkpoint fields (see common/serialize.hpp). The four xoshiro words
  /// ARE the stream cursor: restoring them resumes the draw sequence
  /// exactly where it left off.
  template <class Ar>
  void transfer(Ar& ar) {
    for (std::uint64_t& w : state_) ar.u64(w, "rng state");
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Mix one key word into a hash chain (golden-ratio increment through the
/// splitmix64 finalizer — the same derivation `runtime::derive_seed`
/// uses). Chaining mix64 over several words builds a well-separated key
/// from structured inputs like (seed, cycle, entity).
inline std::uint64_t mix64(std::uint64_t state, std::uint64_t word) {
  std::uint64_t s = state + 0x9e3779b97f4a7c15ULL * (word + 1);
  return splitmix64(s);
}

/// Counter-based stream construction: a fresh Rng keyed purely by
/// (seed, cycle, domain, entity). Any party that knows the key gets the
/// identical stream — no shared cursor, so draw results are independent
/// of which worker evaluates which entity. This is the sharded engine's
/// determinism contract (see engine_sharded.cpp): `domain` separates
/// draw sites (allocation vs injection), `entity` is the VC index or
/// terminal id.
inline Rng keyed_stream(std::uint64_t seed, std::uint64_t cycle,
                        std::uint64_t domain, std::uint64_t entity) {
  std::uint64_t k = mix64(seed, cycle);
  k = mix64(k, domain);
  k = mix64(k, entity);
  return Rng(k);
}

}  // namespace dfsim
