/**
 * @file
 * Fixed-size, zero-initialised array backed by an anonymous mapping.
 *
 * std::vector value-initialises every element, so it writes (and makes
 * resident) every page of a large array at construction. The pages of
 * an anonymous mmap are zero and become resident only when first
 * written. Arrays sized by simulated physical memory — the memory
 * itself, the oracle's shadow of it, the cache's snoop filter — then
 * cost resident memory only for the frames a run touches. calloc
 * promises no such thing: once the allocator has recycled a block it
 * must clear it, touching every page.
 *
 * Elements must be integers (all-zero bytes are the value 0). The
 * array never resizes: raw pointers into it stay valid for its
 * lifetime.
 */

#ifndef VIC_COMMON_ZEROED_ARRAY_HH
#define VIC_COMMON_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <type_traits>

namespace vic
{

template <typename T>
class ZeroedArray
{
    static_assert(std::is_integral_v<T>,
                  "mapped zero bytes must be the value 0");

  public:
    /** @p n elements, all 0. */
    explicit ZeroedArray(std::uint64_t n)
        : count(n), bytes(std::max<std::uint64_t>(n * sizeof(T), 1))
    {
        if (n > ~std::uint64_t(0) / sizeof(T))
            throw std::bad_alloc();
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        elems = static_cast<T *>(p);
    }

    ~ZeroedArray() { munmap(elems, bytes); }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    std::uint64_t size() const { return count; }

    T &operator[](std::uint64_t i) { return elems[i]; }
    const T &operator[](std::uint64_t i) const { return elems[i]; }

    T *begin() { return elems; }
    T *end() { return elems + count; }
    const T *begin() const { return elems; }
    const T *end() const { return elems + count; }

    /** Set every element back to 0. */
    void clear() { std::fill(begin(), end(), T(0)); }

  private:
    std::uint64_t count;
    std::uint64_t bytes;
    T *elems = nullptr;
};

} // namespace vic

#endif // VIC_COMMON_ZEROED_ARRAY_HH
