#include "util/stats.hh"

#include "util/logging.hh"

namespace pabp {

Histogram::Histogram(std::size_t num_buckets, std::uint64_t bucket_width)
    : buckets(num_buckets, 0), width(bucket_width)
{
    pabp_assert(num_buckets > 0 && bucket_width > 0);
}

void
Histogram::sample(std::uint64_t value)
{
    // value == i*width belongs to bucket i (lower boundary closed);
    // the first value past the last bucket goes to overflow.
    std::size_t idx = static_cast<std::size_t>(value / width);
    if (idx < buckets.size())
        ++buckets[idx];
    else
        ++overflow;
    ++total;
    sum += value;
}

double
Histogram::mean() const
{
    return total ? static_cast<double>(sum) / static_cast<double>(total)
                 : 0.0;
}

void
StatGroup::gauge(const std::string &name, Gauge fn)
{
    pabp_assert(fn);
    gauges[name] = std::move(fn);
}

std::uint64_t
StatGroup::value(const std::string &name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second();
}

bool
StatGroup::has(const std::string &name) const
{
    return gauges.find(name) != gauges.end();
}

std::map<std::string, std::uint64_t>
StatGroup::snapshot() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, fn] : gauges)
        out.emplace(name, fn());
    return out;
}

} // namespace pabp
