/**
 * @file
 * Statistics primitives: callback-backed gauges grouped in a
 * registry, and fixed-bucket histograms. Modeled loosely on gem5's
 * stats package but kept deliberately small.
 *
 * The registry (StatGroup) is the metrics backbone: components
 * register their counters under stable dotted names
 * ("engine.all.branches", "sfpf.squashes") and harnesses snapshot the
 * whole group for export (util/metrics.hh). Nothing is ever reset:
 * every sweep cell constructs its own components, so cold counters
 * come from construction alone.
 */

#ifndef PABP_UTIL_STATS_HH
#define PABP_UTIL_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pabp {

/**
 * A histogram with uniform integer buckets plus an overflow bucket.
 * Used for e.g. predicate define-to-branch distance distributions.
 *
 * Bucket i covers [i*width, (i+1)*width - 1]; a sample exactly at a
 * bucket's lower boundary (value == i*width) lands in bucket i, and
 * the first value past the last bucket (num_buckets*width) lands in
 * overflow. mean() over zero samples is 0. Both edge cases are pinned
 * by tests/test_stats.cc.
 */
class Histogram
{
  public:
    /**
     * @param num_buckets Number of uniform buckets.
     * @param bucket_width Width of each bucket (>= 1).
     */
    Histogram(std::size_t num_buckets, std::uint64_t bucket_width);

    /** Record one sample. */
    void sample(std::uint64_t value);

    std::uint64_t count() const { return total; }
    double mean() const;
    std::uint64_t sumOfSamples() const { return sum; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets.at(i); }
    std::uint64_t overflowCount() const { return overflow; }
    std::size_t numBuckets() const { return buckets.size(); }
    std::uint64_t bucketWidth() const { return width; }

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t width;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
};

/**
 * A registry of named statistics. Components register their counters
 * by dotted name ("fetch.branches") as gauges: callbacks reading a
 * counter the component itself owns (and possibly checkpoints).
 * Harnesses snapshot them all.
 *
 * Gauge callbacks capture component pointers; the group must not
 * outlive the components registered into it.
 */
class StatGroup
{
  public:
    using Gauge = std::function<std::uint64_t()>;

    /**
     * Register a callback-backed stat. The component keeps ownership
     * of the underlying counter; the group reads it on demand.
     * Re-registering a name replaces the callback (a component
     * re-registered after reconstruction must not leave a dangling
     * capture behind).
     */
    void gauge(const std::string &name, Gauge fn);

    /** Value of a named gauge, 0 when absent. */
    std::uint64_t value(const std::string &name) const;

    /** Is @p name a registered gauge? */
    bool has(const std::string &name) const;

    /** All current values, sorted by name. */
    std::map<std::string, std::uint64_t> snapshot() const;

  private:
    std::map<std::string, Gauge> gauges;
};

} // namespace pabp

#endif // PABP_UTIL_STATS_HH
