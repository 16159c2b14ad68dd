#include "util/mapped_lane.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

// Linux 5.14; older headers lack the constant, and an older kernel
// answers EINVAL, which populate() ignores.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace pabp::anon_map {

std::size_t
pageBytes()
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

void *
map(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void *
remap(void *p, std::size_t oldBytes, std::size_t newBytes)
{
    void *q = mremap(p, oldBytes, newBytes, MREMAP_MAYMOVE);
    if (q == MAP_FAILED)
        throw std::bad_alloc();
    return q;
}

void
unmap(void *p, std::size_t bytes)
{
    munmap(p, bytes);
}

namespace {

/** Freed lane mappings, oldest first, and their total size. */
struct Pool
{
    std::mutex mu;
    std::deque<std::pair<void *, std::size_t>> maps;
    std::size_t bytes = 0;
};

/** Never destroyed, so a lane freed during static destruction still
 *  finds it. */
Pool &
pool()
{
    static Pool *p = new Pool;
    return *p;
}

} // anonymous namespace

void *
acquire(std::size_t bytes, bool &reused)
{
    Pool &pl = pool();
    {
        std::lock_guard<std::mutex> lock(pl.mu);
        for (auto it = pl.maps.rbegin(); it != pl.maps.rend(); ++it) {
            if (it->second != bytes)
                continue;
            void *p = it->first;
            pl.maps.erase(std::next(it).base());
            pl.bytes -= bytes;
            reused = true;
            return p;
        }
    }
    reused = false;
    return map(bytes);
}

void
release(void *p, std::size_t bytes)
{
    Pool &pl = pool();
    std::vector<std::pair<void *, std::size_t>> evicted;
    {
        std::lock_guard<std::mutex> lock(pl.mu);
        pl.maps.emplace_back(p, bytes);
        pl.bytes += bytes;
        while (pl.bytes > poolBytes) {
            evicted.push_back(pl.maps.front());
            pl.bytes -= pl.maps.front().second;
            pl.maps.pop_front();
        }
    }
    for (const auto &[q, n] : evicted)
        unmap(q, n);
}

void
populate(void *p, std::size_t bytes)
{
    if (bytes == 0)
        return;
    const auto first = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t start = first / pageBytes() * pageBytes();
    madvise(reinterpret_cast<void *>(start),
            roundToPages(first + bytes - start), MADV_POPULATE_WRITE);
}

void
poison([[maybe_unused]] const void *p, [[maybe_unused]] std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    if (bytes)
        ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
}

void
unpoison([[maybe_unused]] const void *p,
         [[maybe_unused]] std::size_t bytes)
{
#if defined(__SANITIZE_ADDRESS__)
    if (bytes)
        ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
}

} // namespace pabp::anon_map
