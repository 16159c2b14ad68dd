/**
 * @file
 * Deterministic pseudo-random number generation for workloads and
 * simulations. Every stochastic element of the repo draws from this
 * generator so that runs are exactly reproducible from a seed.
 */

#ifndef PABP_UTIL_RNG_HH
#define PABP_UTIL_RNG_HH

#include <cstdint>

namespace pabp {

/**
 * xorshift64* generator. Small, fast, and good enough for workload
 * synthesis; not for cryptography. A zero seed is remapped to a fixed
 * non-zero constant because the xorshift state must never be zero.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw: true with the given probability in [0,1]. */
    bool
    chance(double probability)
    {
        if (probability <= 0.0)
            return false;
        if (probability >= 1.0)
            return true;
        return toUnit() < probability;
    }

    /** Uniform double in [0, 1). */
    double
    toUnit()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Reseed the generator. */
    void
    seed(std::uint64_t s)
    {
        state = s ? s : 0x9e3779b97f4a7c15ull;
    }

  private:
    std::uint64_t state;
};

/**
 * splitmix64-style stream splitter: the seed of an independent rng
 * stream per (seed, role), so one role's draws never shift another's.
 */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace pabp

#endif // PABP_UTIL_RNG_HH
