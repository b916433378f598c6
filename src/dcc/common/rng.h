// Deterministic pseudo-random primitives.
//
// Two distinct uses, kept separate on purpose:
//  1. `SplitMix64` / `Xoshiro256ss` — sequential generators for *workloads*
//     (node placement, baseline randomized protocols). Seeded per experiment.
//  2. `StatelessHash` — a counter-mode hash used to realize the paper's
//     probabilistic-method selectors (Lemmas 2-3) as deterministic implicit
//     membership predicates: member(round, id, ...) = f(seed, round, id, ...).
//     All nodes evaluate the same pure function, so the resulting protocol
//     is deterministic and requires no shared random source — the fixed seed
//     is part of the algorithm description (docs/PAPER_MAP.md, "Deviations
//     from the paper").
#pragma once

#include <cstdint>

namespace dcc {

// splitmix64 (Steele, Lea, Flood) — used to seed and as a one-shot mixer.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Mixes an arbitrary number of 64-bit words into one, stateless.
inline std::uint64_t Mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return SplitMix64(s);
}
inline std::uint64_t HashCombine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  return SplitMix64(s);
}
inline std::uint64_t HashWords(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c = 0, std::uint64_t d = 0) {
  return HashCombine(HashCombine(a, b), HashCombine(c, d ^ 0xD6E8FEB86659FD93ull));
}

// xoshiro256** 1.0 (Blackman, Vigna) — workload generator.
class Xoshiro256ss {
 public:
  explicit Xoshiro256ss(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = SplitMix64(sm);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound) for bound >= 1 (modulo bias is negligible
  // for our bounds << 2^64; documented tradeoff for speed/simplicity).
  std::uint64_t NextBelow(std::uint64_t bound) { return Next() % bound; }

  // std::uniform_random_bit_generator interface, usable with <random>.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return Next(); }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

// Stateless keyed hash: Bernoulli(1/denom) coin for a tuple of words.
// Used by the implicit wss/wcss constructions.
class StatelessHash {
 public:
  explicit StatelessHash(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t operator()(std::uint64_t a, std::uint64_t b,
                           std::uint64_t c = 0, std::uint64_t d = 0) const {
    return HashWords(seed_ ^ a, b, c, d);
  }

  // True with probability ~ 1/denom over the hash output.
  bool Coin(std::uint64_t denom, std::uint64_t a, std::uint64_t b,
            std::uint64_t c = 0, std::uint64_t d = 0) const {
    return (*this)(a, b, c, d) % denom == 0;
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

}  // namespace dcc
