/**
 * @file
 * The host-speed reference: fixed work whose code belongs to the
 * benchmark, so that its time moves with the host and never with a
 * change to the simulator.
 *
 * On a shared VM the simulator's host time drifts by up to half within
 * an hour, and by 10-15% between 15-second windows, mostly with the
 * latency of memory and caches other tenants contend for. A sample
 * runs, on every sweep worker thread at once, two kernels standing for
 * the simulator's two kinds of work: a dependent-load chase through
 * 32 MiB (a trace or table walk that misses the shared last-level
 * cache) and a gshare-style counter loop over a 16 MiB branch stream
 * (predictor work). Of the kernels tried (README.md, "Noise on this
 * host"), this pair followed the simulator most consistently from one
 * period to the next.
 */

#include <sys/mman.h>

#include <algorithm>
#include <ctime>
#include <exception>
#include <new>
#include <thread>

#include "bench.hh"

namespace pabp::perf {

namespace {

/** 8 Mi 4-byte links (32 MiB) per thread. */
constexpr unsigned kChainLog2 = 23;
constexpr std::uint64_t kChaseSteps = 1'000'000;
/** 4 Mi branch records (16 MiB) per thread, predicted kSweeps times
 *  with a 1 MiB table of 2-bit counters. */
constexpr unsigned kStreamLog2 = 22;
constexpr unsigned kTableLog2 = 20;
constexpr unsigned kSweeps = 4;

/** A sample's median CPU time per thread on the 4-vCPU host
 *  baseline.json comes from, with four threads. */
constexpr double kNominalCpuS = 0.40;

double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) / 1e9;
}

/** Memory straight from the kernel and back, so that it neither stays
 *  resident between samples nor moves malloc's mmap threshold under
 *  the simulator. */
class Mapping
{
  public:
    explicit Mapping(std::size_t words)
        : bytes(words * sizeof(std::uint32_t)),
          mem(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0))
    {
        if (mem == MAP_FAILED)
            throw std::bad_alloc();
    }
    ~Mapping() { munmap(mem, bytes); }
    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    std::uint32_t *words() { return static_cast<std::uint32_t *>(mem); }

  private:
    std::size_t bytes;
    void *mem;
};

/** One thread's share of a sample; returns a value that depends on
 *  every step, the same on every sample. */
std::uint64_t
referenceWork(unsigned thread)
{
    // Chase: a full-period LCG (multiplier = 1 mod 4, odd increment)
    // links every word once per lap, in an order no prefetcher follows.
    const std::uint32_t links = 1u << kChainLog2;
    Mapping chain(links);
    std::uint32_t *next = chain.words();
    for (std::uint32_t i = 0; i < links; ++i)
        next[i] = (i * 2891336453u + 12345u + 2 * thread) & (links - 1);
    std::uint32_t p = 0;
    for (std::uint64_t k = 0; k < kChaseSteps; ++k)
        p = next[p];

    // Predict: a PC from a skewed set and an outcome that follows the
    // PC's bias three times in four.
    const std::size_t records = std::size_t{1} << kStreamLog2;
    Mapping stream(records);
    std::uint32_t *rec = stream.words();
    std::uint64_t x = 0x9e3779b97f4a7c15ull + thread;
    for (std::size_t i = 0; i < records; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto pc = static_cast<std::uint32_t>(
            (x & 0xfff) * ((x >> 12) & 0xf) + 0x400);
        const bool bias = (pc * 2654435761u) >> 31;
        const bool taken = ((x >> 20) & 3) ? bias : !bias;
        rec[i] = pc << 1 | static_cast<std::uint32_t>(taken);
    }
    std::vector<std::uint8_t> table(std::size_t{1} << kTableLog2, 1);
    const std::uint32_t mask = (1u << kTableLog2) - 1;
    std::uint32_t hist = 0;
    std::uint64_t misses = 0;
    for (unsigned s = 0; s < kSweeps; ++s)
        for (std::size_t i = 0; i < records; ++i) {
            const bool taken = rec[i] & 1;
            std::uint8_t &ctr = table[((rec[i] >> 1) ^ hist) & mask];
            misses += (ctr >= 2) != taken;
            ctr = taken ? (ctr < 3 ? ctr + 1 : 3) : (ctr ? ctr - 1 : 0);
            hist = (hist << 1 | taken) & 0xffff;
        }
    return misses << 32 | p;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

} // anonymous namespace

HostSample
sampleHost(unsigned threads)
{
    std::vector<double> cpu(threads, 0.0);
    std::vector<std::uint64_t> ends(threads, 0);
    std::vector<std::exception_ptr> errors(threads);
    auto work = [&](unsigned t) {
        try {
            const double c0 = threadCpuS();
            ends[t] = referenceWork(t);
            cpu[t] = threadCpuS() - c0;
        } catch (...) {
            errors[t] = std::current_exception();
        }
    };
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::jthread> pool; // joined on every way out
        for (unsigned t = 1; t < threads; ++t)
            pool.emplace_back(work, t);
        work(0);
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    HostSample out;
    out.wallS = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    for (unsigned t = 0; t < threads; ++t) {
        out.cpuS += cpu[t] / threads;
        out.end ^= ends[t];
    }
    return out;
}

double
hostScale(const std::vector<HostSample> &samples)
{
    std::vector<double> v;
    for (const HostSample &s : samples)
        v.push_back(s.cpuS);
    return kNominalCpuS / median(v);
}

} // namespace pabp::perf
