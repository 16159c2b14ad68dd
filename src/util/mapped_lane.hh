/**
 * @file
 * MappedLane: a growable flat array of trivially copyable values on
 * its own anonymous memory mapping - the storage of every
 * DecodedTrace lane (sim/decoded_trace.hh).
 *
 * Why not std::vector: a recorded trace is several megabytes per lane
 * and lives only as long as the sweep cells that replay it. On the
 * glibc heap a freed lane of that size raises the allocator's dynamic
 * mmap threshold, so later lanes come from the brk heap and stay
 * resident after they are freed; a sweep's peak RSS then measures
 * allocation order rather than live traces (docs/PERF.md, "Trace
 * memory"). A mapping is zero-filled by the kernel on first touch and
 * handed back with munmap, so a freed lane leaves the process - all
 * but a small pool: the most recently freed lane mappings, at most
 * anon_map::poolBytes of them, wait for the next lane of the same
 * size. A sweep that records one short trace per cell then reuses
 * resident pages instead of having the kernel fault in and zero fresh
 * ones for every trace.
 *
 * Growing resize() prefaults the never-written pages it grows into in
 * one madvise(MADV_POPULATE_WRITE) call, so a recorder that grows its
 * lanes a chunk at a time takes no per-page faults while it writes.
 * Growth past the capacity moves the mapping with mremap, which
 * copies no data. Elements a resize() adds are zero.
 *
 * Under AddressSanitizer the unused tail of the mapping [size,
 * capacity) is poisoned, so an index past size() is still reported as
 * it would be past a heap block.
 */

#ifndef PABP_UTIL_MAPPED_LANE_HH
#define PABP_UTIL_MAPPED_LANE_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

namespace pabp {

namespace anon_map {

/** Bytes of one page of the mappings below. */
std::size_t pageBytes();

/** Round @p bytes up to whole pages. */
inline std::size_t
roundToPages(std::size_t bytes)
{
    const std::size_t page = pageBytes();
    return (bytes + page - 1) / page * page;
}

/** Map @p bytes (nonzero; the kernel rounds up to whole pages) of
 *  lazily zero-filled private anonymous memory, which GuestMemory
 *  (sim/arch_state.hh) uses too; throws std::bad_alloc on failure. */
void *map(std::size_t bytes);

/** Resize the mapping at @p p from @p oldBytes to @p newBytes (both
 *  whole pages, nonzero), keeping its contents; it may move. Throws
 *  std::bad_alloc on failure. */
void *remap(void *p, std::size_t oldBytes, std::size_t newBytes);

/** Release a mapping made by map() or remap(). */
void unmap(void *p, std::size_t bytes);

/** Most bytes of freed lane mappings kept for reuse. */
constexpr std::size_t poolBytes = std::size_t(8) << 20;

/** A lane mapping of exactly @p bytes (whole pages): the most recently
 *  released one of that size, its old contents intact (@p reused set),
 *  or else a fresh map(). */
void *acquire(std::size_t bytes, bool &reused);

/** Hand back a lane mapping of @p bytes: it joins the pool, whose
 *  oldest mappings are unmapped past poolBytes. */
void release(void *p, std::size_t bytes);

/** Fault in the pages covering [@p p, @p p + @p bytes) of a mapping
 *  in one call. Best effort: a kernel without MADV_POPULATE_WRITE
 *  leaves them to fault on first touch. */
void populate(void *p, std::size_t bytes);

/** AddressSanitizer manual poisoning of [@p p, @p p + @p bytes); both
 *  are no-ops in a build without ASan. */
void poison(const void *p, std::size_t bytes);
void unpoison(const void *p, std::size_t bytes);

} // namespace anon_map

template <typename T>
class MappedLane
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a lane is copied and zero-filled bytewise");

  public:
    using iterator = T *;
    using const_iterator = const T *;

    MappedLane() = default;

    template <typename It>
    MappedLane(It first, It last)
    {
        resize(static_cast<std::size_t>(std::distance(first, last)));
        std::copy(first, last, ptr);
    }

    MappedLane(const MappedLane &other)
        : MappedLane(other.begin(), other.end())
    {}

    MappedLane(MappedLane &&other) noexcept
        : ptr(std::exchange(other.ptr, nullptr)),
          len(std::exchange(other.len, 0)),
          cap(std::exchange(other.cap, 0)),
          dirty(std::exchange(other.dirty, 0))
    {}

    /** Copy and move assignment in one (copy-and-swap). */
    MappedLane &
    operator=(MappedLane other) noexcept
    {
        std::swap(ptr, other.ptr);
        std::swap(len, other.len);
        std::swap(cap, other.cap);
        std::swap(dirty, other.dirty);
        return *this;
    }

    ~MappedLane() { release(); }

    T *data() { return ptr; }
    const T *data() const { return ptr; }
    std::size_t size() const { return len; }
    /** Elements the mapping holds: its whole pages, not the request. */
    std::size_t capacity() const { return cap; }

    T &operator[](std::size_t i) { return ptr[i]; }
    const T &operator[](std::size_t i) const { return ptr[i]; }

    T *begin() { return ptr; }
    T *end() { return ptr + len; }
    const T *begin() const { return ptr; }
    const T *end() const { return ptr + len; }

    /** Make room for @p n elements without touching their pages. */
    void
    reserve(std::size_t n)
    {
        if (n > cap)
            remapTo(n);
    }

    /** Set the size to @p n. Added elements are zero, and the
     *  never-written pages among them are faulted in by one populate
     *  call. */
    void
    resize(std::size_t n)
    {
        if (n > cap)
            remapTo(std::max(n, cap + cap / 2));
        if (n > len) {
            anon_map::unpoison(ptr + len, (n - len) * sizeof(T));
            // Pages past the dirty mark are still the kernel's zeros.
            if (dirty > len)
                std::memset(static_cast<void *>(ptr + len), 0,
                            (std::min(n, dirty) - len) * sizeof(T));
            if (n > dirty) {
                const std::size_t from = std::max(len, dirty);
                anon_map::populate(ptr + from, (n - from) * sizeof(T));
            }
        } else {
            anon_map::poison(ptr + n, (len - n) * sizeof(T));
        }
        len = n;
        dirty = std::max(dirty, n);
    }

    void
    push_back(T value)
    {
        if (len == cap)
            remapTo(std::max<std::size_t>(cap * 2, 1));
        anon_map::unpoison(ptr + len, sizeof(T));
        ptr[len++] = value;
        dirty = std::max(dirty, len);
    }

    /** Give the whole pages past size() back to the kernel (an empty
     *  lane's mapping goes to the pool). */
    void
    shrink_to_fit()
    {
        if (len == 0) {
            release();
            return;
        }
        if (anon_map::roundToPages(len * sizeof(T)) < mappedBytes())
            remapTo(len);
    }

    friend bool
    operator==(const MappedLane &a, const MappedLane &b)
    {
        return a.len == b.len && std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    std::size_t mappedBytes() const
    {
        return anon_map::roundToPages(cap * sizeof(T));
    }

    /** Move to a mapping of at least @p n elements (and at least
     *  size()), poisoning its tail past size(). */
    void
    remapTo(std::size_t n)
    {
        const std::size_t bytes = anon_map::roundToPages(n * sizeof(T));
        bool reused = false;
        void *p;
        if (ptr) {
            anon_map::unpoison(ptr, mappedBytes());
            p = anon_map::remap(ptr, mappedBytes(), bytes);
        } else {
            p = anon_map::acquire(bytes, reused);
        }
        ptr = static_cast<T *>(p);
        cap = bytes / sizeof(T);
        dirty = reused ? cap : std::min(dirty, cap);
        // Set the shadow of the whole new range: another mapping may
        // have left it poisoned.
        anon_map::unpoison(ptr, len * sizeof(T));
        anon_map::poison(ptr + len, bytes - len * sizeof(T));
    }

    void
    release()
    {
        if (!ptr)
            return;
        anon_map::unpoison(ptr, mappedBytes());
        anon_map::release(ptr, mappedBytes());
        ptr = nullptr;
        len = cap = dirty = 0;
    }

    T *ptr = nullptr;
    std::size_t len = 0;
    std::size_t cap = 0;
    /** Elements [0, dirty) may hold nonzero bytes; the rest of the
     *  mapping has never been written since the kernel zeroed it. A
     *  mapping reused from the pool is dirty throughout. */
    std::size_t dirty = 0;
};

} // namespace pabp

#endif // PABP_UTIL_MAPPED_LANE_HH
