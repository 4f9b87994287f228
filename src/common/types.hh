/**
 * @file
 * Fundamental strongly-typed value types shared across the simulator.
 *
 * Virtual and physical addresses are distinct wrapper types so that the
 * compiler rejects the classic cache-simulator bug of indexing a
 * virtually indexed cache with a physical address (or tagging it with a
 * virtual one). Both wrap a private 64-bit value that no public member
 * returns whole: code works on an address through named, kind-preserving
 * operations (alignment, offset within a granule, page or line number),
 * and the one place where either kind may stand in for the other, the
 * cache set index, takes an explicit IndexAddr built from one of them.
 * Arithmetic helpers are spelled out rather than via operator overloads
 * so call sites stay greppable.
 */

#ifndef VIC_COMMON_TYPES_HH
#define VIC_COMMON_TYPES_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>

namespace vic
{

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Identifier of an address space (a Mach task, or the kernel). */
using SpaceId = std::uint32_t;

/** Identifier of a cache page ("cache colour"): index of the page-sized
 *  region of the cache that a virtual page maps onto. */
using CachePageId = std::uint32_t;

/** Identifier of a physical page frame. */
using FrameId = std::uint64_t;

// Granule arguments below (a word, a line, a page, a DMA beat) are
// powers of two, as CacheGeometry, PageTable and DmaEngine check when
// they are configured.

/** A virtual address within some address space. */
class VirtAddr
{
  public:
    constexpr VirtAddr() = default;
    constexpr explicit VirtAddr(std::uint64_t v) : value(v) {}

    constexpr auto operator<=>(const VirtAddr &) const = default;

    /** Byte offset added to this address. */
    constexpr VirtAddr plus(std::uint64_t bytes) const
    { return VirtAddr(value + bytes); }

    constexpr bool isAligned(std::uint64_t granule) const
    { return (value & (granule - 1)) == 0; }

    /** Byte offset of this address within its @p granule. */
    constexpr std::uint64_t offsetIn(std::uint64_t granule) const
    { return value & (granule - 1); }

    /** First byte of the @p granule containing this address. */
    constexpr VirtAddr alignDown(std::uint64_t granule) const
    { return VirtAddr(value & ~(granule - 1)); }

    /** Bytes from @p base (at or below this address) to this one. */
    constexpr std::uint64_t bytesFrom(VirtAddr base) const
    { return value - base.value; }

    /** Virtual page number under @p page_bytes pages. */
    constexpr std::uint64_t pageNumber(std::uint64_t page_bytes) const
    { return value / page_bytes; }

  private:
    std::uint64_t value = 0;

    friend class IndexAddr;
    friend struct SpaceVa;
    friend struct std::hash<VirtAddr>;
    friend std::string hex(VirtAddr va);
};

/** A physical (machine) address. */
class PhysAddr
{
  public:
    constexpr PhysAddr() = default;
    constexpr explicit PhysAddr(std::uint64_t v) : value(v) {}

    constexpr auto operator<=>(const PhysAddr &) const = default;

    /** Byte offset added to this address. */
    constexpr PhysAddr plus(std::uint64_t bytes) const
    { return PhysAddr(value + bytes); }

    constexpr bool isAligned(std::uint64_t granule) const
    { return (value & (granule - 1)) == 0; }

    /** Byte offset of this address within its @p granule. */
    constexpr std::uint64_t offsetIn(std::uint64_t granule) const
    { return value & (granule - 1); }

    /** First byte of the @p granule containing this address. */
    constexpr PhysAddr alignDown(std::uint64_t granule) const
    { return PhysAddr(value & ~(granule - 1)); }

    /** Bytes from @p base (at or below this address) to this one. */
    constexpr std::uint64_t bytesFrom(PhysAddr base) const
    { return value - base.value; }

    /** Index of the 32-bit word at this address in physical memory. */
    constexpr std::uint64_t wordIndex() const { return value / 4; }

    /** Physical line number: the cache tag under @p line_bytes lines. */
    constexpr std::uint64_t lineNumber(std::uint64_t line_bytes) const
    { return value / line_bytes; }

    /** Page frame holding this address under @p page_bytes pages. */
    constexpr std::uint64_t frame(std::uint64_t page_bytes) const
    { return value / page_bytes; }

  private:
    std::uint64_t value = 0;

    friend class IndexAddr;
    friend struct std::hash<PhysAddr>;
    friend std::string hex(PhysAddr pa);
};

/**
 * The address whose bits select a cache set: the virtual address in a
 * virtually indexed cache, the physical one in a physically indexed
 * cache (Cache::indexBits picks by Indexing). It is built only by
 * explicit construction from one of the two kinds, never from raw
 * bits, so every index names the kind it was taken from.
 */
class IndexAddr
{
  public:
    constexpr explicit IndexAddr(VirtAddr va) : value(va.value) {}
    constexpr explicit IndexAddr(PhysAddr pa) : value(pa.value) {}

    /** Line number under @p line_bytes lines: the set index before
     *  it wraps at the number of sets. */
    constexpr std::uint64_t lineNumber(std::uint64_t line_bytes) const
    { return value / line_bytes; }

  private:
    std::uint64_t value;
};

static_assert(!std::is_constructible_v<PhysAddr, VirtAddr> &&
                  !std::is_constructible_v<VirtAddr, PhysAddr>,
              "a virtual address becomes physical only by translation");
static_assert(!std::is_constructible_v<IndexAddr, std::uint64_t>,
              "a set index is taken from a typed address, not raw bits");
static_assert(std::is_trivially_copyable_v<IndexAddr>);

/** A (space, virtual address) pair: the globally unique name of a byte
 *  of virtual memory in the hierarchical address-space model. */
struct SpaceVa
{
    SpaceId space = 0;
    VirtAddr va;

    constexpr SpaceVa() = default;
    constexpr SpaceVa(SpaceId s, VirtAddr v) : space(s), va(v) {}

    constexpr auto operator<=>(const SpaceVa &) const = default;

    /** Fixed multiplicative mix (splitmix64 finaliser) of the packed
     *  pair: host-independent by construction, so a table indexed by
     *  it iterates and probes the same way on every host. The page
     *  table's buckets and the TLB's index both take their slot from
     *  its low bits. */
    constexpr std::uint64_t
    mix() const
    {
        std::uint64_t x = hashKey();
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

  private:
    /** The pair packed into one word for hashing: the space above bit
     *  48, xor-ed over the address. */
    constexpr std::uint64_t
    hashKey() const
    { return (std::uint64_t(space) << 48) ^ va.value; }

    friend struct std::hash<SpaceVa>;
};

/** Lower-case hex digits of an address with no prefix, for "%s" in
 *  log and panic messages. Event-log lines in run artifacts carry this
 *  form, so it must stay what "%llx" writes. */
std::string hex(VirtAddr va);
std::string hex(PhysAddr pa);

/** "0x…" for test failure messages. */
std::ostream &operator<<(std::ostream &os, VirtAddr va);
std::ostream &operator<<(std::ostream &os, PhysAddr pa);
std::ostream &operator<<(std::ostream &os, const SpaceVa &sva);

/** Memory-system operations, exactly the six events of the paper's
 *  consistency model (Section 3.2). Purge and Flush are the two cache
 *  control operations exported by the hardware. */
enum class MemOp : std::uint8_t
{
    CpuRead,
    CpuWrite,
    DmaRead,   ///< device reads from the memory system (disk write)
    DmaWrite,  ///< device writes into the memory system (disk read)
    Purge,
    Flush,
};

/** Human-readable name of a MemOp. */
const char *memOpName(MemOp op);

/** Which of the two split caches a reference targets. The paper's
 *  implementation keeps independent consistency state per cache because
 *  the hardware does not keep the instruction and data caches coherent
 *  (Section 4.1). */
enum class CacheKind : std::uint8_t
{
    Data,
    Instruction,
};

/** Human-readable name of a CacheKind. */
const char *cacheKindName(CacheKind kind);

/**
 * Page protections that the MMU can enforce; the consistency algorithm
 * drives transitions by downgrading these (final stanza of Figure 1).
 *
 * Execute is separate from read (as on PA-RISC) because the machine
 * has split instruction and data caches whose consistency states are
 * independent: a page may be safe to load (its data-cache page is
 * present) yet unsafe to fetch instructions from (its instruction-
 * cache page is stale), and the protection hardware must be able to
 * trap exactly the unsafe kind of access.
 */
struct Protection
{
    bool read = false;
    bool write = false;
    bool execute = false;

    constexpr bool operator==(const Protection &) const = default;

    static constexpr Protection none() { return {}; }
    static constexpr Protection readOnly() { return {true, false, false}; }
    static constexpr Protection readWrite() { return {true, true, false}; }
    static constexpr Protection readExecute()
    { return {true, false, true}; }
    static constexpr Protection all() { return {true, true, true}; }

    /** The permissions allowed by both this and @p other. */
    constexpr Protection
    intersect(Protection other) const
    {
        return {read && other.read, write && other.write,
                execute && other.execute};
    }

    /** @return true iff no access at all is allowed. */
    constexpr bool isNone() const { return !read && !write && !execute; }
};

/** Short human-readable protection description ("r-x" style). */
std::string protectionName(Protection prot);

} // namespace vic

namespace std
{

template <>
struct hash<vic::VirtAddr>
{
    size_t operator()(const vic::VirtAddr &a) const noexcept
    { return std::hash<std::uint64_t>{}(a.value); }
};

template <>
struct hash<vic::PhysAddr>
{
    size_t operator()(const vic::PhysAddr &a) const noexcept
    { return std::hash<std::uint64_t>{}(a.value); }
};

template <>
struct hash<vic::SpaceVa>
{
    size_t operator()(const vic::SpaceVa &s) const noexcept
    { return std::hash<std::uint64_t>{}(s.hashKey()); }
};

} // namespace std

#endif // VIC_COMMON_TYPES_HH
