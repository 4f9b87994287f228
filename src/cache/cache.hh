/**
 * @file
 * Functional and cycle-timed cache simulator.
 *
 * Models the HP 9000 Series 700 cache organisation of the paper:
 * virtually indexed, physically tagged, write-back, direct mapped —
 * plus the alternative organisations of Section 3.3 (physically
 * indexed, write-through, set associative) behind the same interface.
 *
 * The simulator stores real data. Because the index comes from the
 * virtual address while the tag comes from the physical address, a
 * physical line mapped at two unaligned virtual addresses occupies two
 * cache lines with independent data — so stale reads, shadowed DMA
 * input and lost write-backs genuinely occur when consistency is
 * mismanaged. The two cache control operations the hardware exports,
 * flush and purge by virtual address, are modelled with the 720's
 * measured cost asymmetry (an operation on a line that is present is
 * several times more expensive than on an absent one, Section 2.3).
 *
 * Each line carries a MESI coherence state. On a uniprocessor the
 * states degenerate to the classic valid/dirty pair (fill -> Exclusive,
 * store -> Modified) and nothing else changes. When the cache is
 * attached to a CoherenceBus (multi-CPU machines, coherence.hh), fills
 * become bus transactions that snoop the peer caches, stores to Shared
 * lines upgrade ownership, and the bus calls back into the snoop
 * methods to downgrade or invalidate this cache's copy.
 *
 * CPU accesses arrive as line runs: readRun()/writeRun() take n words
 * of one line in one call and leave the state of n one-word accesses,
 * whatever the outcome (hits, one miss and fill, a Shared upgrade, or
 * write-through). read()/write() are their one-word cases, and
 * copyRun() closes a copy loop's pairs where it can (DESIGN.md "Line
 * runs").
 */

#ifndef VIC_CACHE_CACHE_HH
#define VIC_CACHE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_geometry.hh"
#include "common/column_store.hh"
#include "common/cycle_clock.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/zeroed_array.hh"
#include "common/types.hh"
#include "mem/physical_memory.hh"

namespace vic
{

class CoherenceBus;

/** Write policy of the cache (Section 3.3 distinguishes the two by the
 *  existence of the dirty state). */
enum class WritePolicy : std::uint8_t
{
    WriteBack,
    WriteThrough,
};

/** Per-line MESI coherence state. Invalid/Exclusive/Modified map onto
 *  the uniprocessor (valid, dirty) pair; Shared only arises when a
 *  CoherenceBus observes another cache holding the line. */
enum class MesiState : std::uint8_t
{
    Invalid = 0,
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
};

/** Printable name ("I"/"S"/"E"/"M") for traces and tests. */
const char *mesiStateName(MesiState s);

/** Per-operation cycle costs. Defaults approximate the 50 MHz 720 as
 *  characterised in the paper. */
struct CacheCosts
{
    Cycles hit = 1;             ///< load/store hit
    Cycles missPenalty = 15;    ///< line fill from memory
    Cycles writeBackPenalty = 15; ///< dirty victim write-back

    /** Flush/purge of a line that is present: slow (memory traffic /
     *  pipeline drain). The paper: "a purge or flush of a virtual
     *  address can be up to seven times slower when the data is in the
     *  cache as opposed to when it isn't". */
    Cycles opLinePresent = 14;
    /** Flush/purge of an absent line: fast. */
    Cycles opLineAbsent = 2;
    /** If true, line flush/purge costs opLinePresent regardless of
     *  presence — the 720's instruction cache "requires constant time
     *  to purge ... regardless of its contents" (Section 5.1). */
    bool uniformOpCost = false;
};

/** A Cache's counters, registered under its instance prefix
 *  ("dcache0." + "hits"). */
enum class CacheStat
{
    Reads,
    Writes,
    Hits,
    Misses,
    WriteBacks,
    Fills,
    FlushPresent,
    FlushAbsent,
    PurgePresent,
    PurgeAbsent,
    FlushCycles, ///< cycles spent in flush operations
    PurgeCycles, ///< cycles spent in purge operations
    Count
};
inline constexpr CounterTable<CacheStat> kCacheCounters{
    "reads",         "writes",       "hits",          "misses",
    "write_backs",   "fills",        "flush_present", "flush_absent",
    "purge_present", "purge_absent", "flush_cycles",  "purge_cycles"};

/** The synonym self-snoop rows, registered by enableSelfSnoop() only,
 *  so machines without synonym coherence keep their exact counter
 *  set. */
enum class CacheSynonymStat { Snoops, SnoopCycles, Count };
inline constexpr CounterTable<CacheSynonymStat> kCacheSynonymCounters{
    "synonym_snoops", "synonym_snoop_cycles"};

class Cache
{
  public:
    /**
     * @param cache_name prefix for statistics (e.g. "dcache")
     * @param geom       geometry (size, line, page, ways, indexing)
     * @param cache_costs cycle cost table
     * @param write_policy write-back or write-through
     * @param memory     backing physical memory
     * @param clock      cycle clock charged by every operation
     * @param stat_set   statistics registry
     */
    Cache(std::string cache_name, const CacheGeometry &geom,
          const CacheCosts &cache_costs, WritePolicy write_policy,
          PhysicalMemory &memory, CycleClock &clock, StatSet &stat_set);

    const CacheGeometry &geometry() const { return geo; }
    WritePolicy writePolicy() const { return policy; }
    const std::string &name() const { return cacheName; }

    /**
     * Attach this cache to a snooping coherence bus. Every fill then
     * issues a bus-read (or bus-read-exclusive for stores) and stores
     * to Shared lines issue a bus-upgrade; the bus snoops the peers
     * through snoopBusRead()/snoopBusInvalidate(). A cache with no bus
     * behaves exactly as the uniprocessor cache always has.
     */
    void attachBus(CoherenceBus *b) { bus = b; }

    /** @return the attached coherence bus, or nullptr. */
    CoherenceBus *coherenceBus() const { return bus; }

    /**
     * Enable reverse-lookup synonym coherence (arXiv 2108.00444): at
     * fill time the cache snoops its *own* other candidate sets for a
     * copy of the same physical line under a different colour, writes
     * it back if modified and invalidates it, so at most one copy of
     * any physical line ever lives in the cache. @p penalty_cycles is
     * charged per displaced synonym; counters
     * <name>.synonym_snoops/.synonym_snoop_cycles are registered
     * lazily so uncoherent machines' artifacts are unchanged.
     */
    void enableSelfSnoop(Cycles penalty_cycles);

    /** CPU load of the aligned word at (@p va -> @p pa): a one-word
     *  readRun(). */
    std::uint32_t read(VirtAddr va, PhysAddr pa);

    /** CPU store of the aligned word at (@p va -> @p pa): a one-word
     *  writeRun(). */
    void write(VirtAddr va, PhysAddr pa, std::uint32_t value);

    /**
     * Line run of loads: the @p n words from (@p va -> @p pa) on, all
     * in one line. Leaves the state of n read() calls: on a hit, n
     * read hits; on a miss, the first word misses (a dirty victim is
     * written back, then the line fills) and the other n - 1 hit.
     * @return the line's words from @p pa's on.
     */
    const std::uint32_t *
    readRun(VirtAddr va, PhysAddr pa, std::uint32_t n)
    {
        const std::uint32_t set = geo.setIndex(indexBits(va, pa));
        const int way = findWay(set, pa);
        std::uint32_t id;
        if (way >= 0) [[likely]] {
            id = lineId(set, static_cast<std::uint32_t>(way));
        } else {
            vic_assert(n > 0, "empty run");
            id = fill(set, pa, false);
        }
        counters[CacheStat::Reads] += n;
        counters[CacheStat::Hits] += n - (way < 0);
        clk.advance(Cycles(n) * costs.hit);
        useTick += n;
        lineUse[id] = useTick;
        return lineData(id) + wordInLine(pa);
    }

    /**
     * Line run of stores: @p values to the @p n words from
     * (@p va -> @p pa) on, all in one line. Leaves the state of n
     * write() calls. Write-back: a miss fills the line for writing on
     * the first word (the other n - 1 hit), and a Shared hit on a
     * coherence bus broadcasts one upgrade; the line ends Modified.
     * Write-through: n no-allocate memory writes, all hits or all
     * misses.
     */
    void
    writeRun(VirtAddr va, PhysAddr pa, const std::uint32_t *values,
             std::uint32_t n)
    {
        const std::uint32_t set = geo.setIndex(indexBits(va, pa));
        const int way = findWay(set, pa);
        const std::uint32_t id =
            lineId(set, static_cast<std::uint32_t>(way));
        if (way < 0 || policy != WritePolicy::WriteBack ||
            (bus != nullptr && lineState[id] == MesiState::Shared))
            [[unlikely]] {
            writeRunSlow(set, way, pa, values, n);
            return;
        }
        counters[CacheStat::Writes] += n;
        counters[CacheStat::Hits] += n;
        clk.advance(Cycles(n) * costs.hit);
        commitWrite(id, pa, values, n);
    }

    /**
     * Line run of a copy loop: n times, a read of word i of the source
     * line then a write of it to word i of the destination line
     * (@p n words from each address on, each run within one line, the
     * two on different physical lines). Completes the run in one step
     * in two cases — both lines present (all hits), or the conflict
     * closed form (DESIGN.md "Line runs") — and returns the
     * destination line's words from @p dst_pa's on, which hold the
     * copied values. Otherwise touches nothing and returns nullptr.
     */
    const std::uint32_t *copyRun(VirtAddr src_va, PhysAddr src_pa,
                                 VirtAddr dst_va, PhysAddr dst_pa,
                                 std::uint32_t n);

    /**
     * Hardware "flush virtual address": remove the line containing
     * @p va from the cache, writing it back first if dirty. The line is
     * located by indexing with @p va and comparing the physical tag
     * against @p pa, as on PA-RISC.
     *
     * @return true iff a matching line was present.
     */
    bool flushLine(VirtAddr va, PhysAddr pa)
    { return removeLine(va, pa, true); }

    /** Hardware "purge virtual address": remove without write-back.
     *  @return true iff a matching line was present. */
    bool purgeLine(VirtAddr va, PhysAddr pa)
    { return removeLine(va, pa, false); }

    /** Flush every line of the page mapped at (@p page_va -> @p page_pa).
     *  @return number of lines that were present. */
    std::uint32_t flushPage(VirtAddr page_va, PhysAddr page_pa)
    { return removePage(page_va, page_pa, true); }

    /** Purge every line of the page at (@p page_va -> @p page_pa).
     *  @return number of lines that were present. */
    std::uint32_t purgePage(VirtAddr page_va, PhysAddr page_pa)
    { return removePage(page_va, page_pa, false); }

    /** Invalidate the whole cache without write-back (power-up). */
    void purgeAll();

    /**
     * Coherent-DMA support (Section 3.3, "DMA can access the cache"):
     * invalidate every line whose tag covers @p pa_line, regardless of
     * which set it sits in. Used by a snooping DmaEngine on DMA-write.
     */
    void snoopInvalidateLine(PhysAddr pa_line);

    /**
     * Coherent-DMA support: if any line holding @p pa_line is dirty,
     * write it back so memory is current. Used by a snooping DmaEngine
     * on DMA-read. @return true iff a write-back occurred.
     */
    bool snoopWriteBackLine(PhysAddr pa_line);

    /** Outcome of a bus snoop against this cache. */
    struct SnoopReply
    {
        bool hadCopy = false;   ///< a valid copy of the line was found
        bool intervened = false; ///< a Modified copy was written back
    };

    /**
     * Bus snoop for a peer's read: a Modified copy is written back
     * (memory becomes current) and any copy downgrades to Shared.
     */
    SnoopReply snoopBusRead(PhysAddr pa_line)
    { return snoopBus(pa_line, false); }

    /**
     * Bus snoop for a peer's write (bus-read-exclusive / upgrade): a
     * Modified copy is written back first, then every copy is
     * invalidated.
     */
    SnoopReply snoopBusInvalidate(PhysAddr pa_line)
    { return snoopBus(pa_line, true); }

    /** Result of a non-intrusive lookup, for tests and the oracle. */
    struct Probe
    {
        bool present = false; ///< valid line with matching tag at va's set
        bool dirty = false;
        MesiState state = MesiState::Invalid; ///< coherence state
        std::uint32_t word = 0; ///< cached value of the probed word
    };

    /** Inspect the cache without charging cycles or changing state. */
    Probe probe(VirtAddr va, PhysAddr pa) const;

    /** Recount every valid line's tag by brute force and compare the
     *  result with the snoop filter's copy counts and the
     *  resident-line bitmap (for tests). */
    bool copyCountsConsistent() const;

  private:
    std::string cacheName;
    CacheGeometry geo;
    CacheCosts costs;
    WritePolicy policy;
    PhysicalMemory &mem;
    CycleClock &clk;
    StatSet &statSet;
    CoherenceBus *bus = nullptr;

    /**
     * Per-line metadata in structure-of-arrays layout
     * (common/column_store.hh): column 0 = MESI state, column 1 =
     * physical tag (pa / lineBytes), column 2 = LRU use tick. The tag
     * probe touches only the state and tag columns, so a whole set's
     * candidates land in one or two host cache lines and the
     * branchless compare in findWay() vectorises; the LRU tick —
     * written on every hit but read only by victim selection — stays
     * out of the probe's way. Raw column pointers are resolved once
     * (the store never reallocates).
     */
    ColumnStore<MesiState, std::uint64_t, std::uint64_t> lineCols;
    MesiState *lineState = nullptr;
    std::uint64_t *lineTag = nullptr;
    std::uint64_t *lineUse = nullptr;

    std::vector<std::uint32_t> data;
    std::uint64_t useTick = 0;

    /**
     * Snoop filter: copies[l] is the number of valid lines tagged with
     * physical line l. Changed only by fill() (one increment) and
     * dropLine() (one decrement), so a snoop for a line this cache
     * does not hold costs one load instead of a candidate-set scan.
     * One entry per line of physical memory.
     */
    ZeroedArray<std::uint16_t> copies;

    /**
     * Resident-line bitmap: bit l is set iff copies[l] > 0, so the
     * linesPerPage-bit run of a frame says which of its lines the
     * cache holds (in any set). Set and cleared only where copies[]
     * crosses 0 <-> 1 (fill(), dropLine()) and by purgeAll(); a page
     * op visits the set bits instead of every line of the page.
     */
    ZeroedArray<std::uint64_t> resident;

    bool selfSnoop = false;
    Cycles selfSnoopPenalty = 0;

    Counters<kCacheCounters> counters;
    Counters<kCacheSynonymCounters> synonymCounters;

    IndexAddr
    indexBits(VirtAddr va, PhysAddr pa) const
    {
        return geo.indexing() == Indexing::Virtual ? IndexAddr(va)
                                                   : IndexAddr(pa);
    }
    std::uint32_t lineId(std::uint32_t set, std::uint32_t way) const
    { return set * geo.associativity() + way; }
    std::uint32_t *lineData(std::uint32_t line_id)
    { return data.data() + std::uint64_t(line_id) * geo.wordsPerLine(); }
    const std::uint32_t *lineData(std::uint32_t line_id) const
    { return data.data() + std::uint64_t(line_id) * geo.wordsPerLine(); }

    std::uint32_t wordInLine(PhysAddr pa) const
    {
        return static_cast<std::uint32_t>(pa.offsetIn(geo.lineBytes()) /
                                          4);
    }

    bool lineValid(std::uint32_t id) const
    { return lineState[id] != MesiState::Invalid; }
    bool lineDirty(std::uint32_t id) const
    { return lineState[id] == MesiState::Modified; }

    /**
     * Find a valid way in @p set whose tag covers @p pa.
     * @return way index or -1.
     *
     * Branchless probe over the set's way-vector: every way's
     * (valid, tag-equal) conjunction is computed with data-dependent
     * arithmetic only, and since at most one way can match (fills
     * only happen after a failed probe) OR-ing way+1 under the match
     * mask yields the unique hit with no early-exit branch for the
     * predictor to miss.
     */
    int
    findWay(std::uint32_t set, PhysAddr pa) const
    {
        const std::uint64_t tag = pa.lineNumber(geo.lineBytes());
        const std::uint32_t ways = geo.associativity();
        const std::uint32_t base = set * ways;
        std::uint32_t hit = 0;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const std::uint32_t id = base + w;
            const bool match =
                (lineState[id] != MesiState::Invalid) &
                (lineTag[id] == tag);
            hit |= match * (w + 1);
        }
        return static_cast<int>(hit) - 1;
    }

    /** Choose a victim way in @p set (invalid first, else LRU). */
    std::uint32_t victimWay(std::uint32_t set) const;

    /** Write line @p line_id back to memory (Modified -> Exclusive). */
    void writeBack(std::uint32_t line_id);

    /**
     * Miss handling of a run at @p pa in @p set: count the miss, write
     * the victim way back if dirty, then fill it with @p pa's line. On
     * a bus the fill is a bus-read (@p for_write false: fills Shared
     * or Exclusive by the peers' reply) or a bus-read-exclusive
     * (@p for_write true: peers invalidate, fills Exclusive); with
     * synonym coherence the cache's other candidate sets are
     * self-snooped first. @return the filled line's id.
     */
    std::uint32_t fill(std::uint32_t set, PhysAddr pa, bool for_write);

    /** writeRun() for a miss (fill for writing), a Shared line on a
     *  bus (one upgrade) or a write-through cache (memory writes, no
     *  allocation on a miss). @p way is the probe's result. */
    void writeRunSlow(std::uint32_t set, int way, PhysAddr pa,
                      const std::uint32_t *values, std::uint32_t n);

    /** Store @p values into line @p line_id from @p pa's word on: the
     *  LRU tick of n writes, and the line Modified. */
    void
    commitWrite(std::uint32_t line_id, PhysAddr pa,
                const std::uint32_t *values, std::uint32_t n)
    {
        useTick += n;
        lineUse[line_id] = useTick;
        lineState[line_id] = MesiState::Modified;
        std::copy_n(values, n, lineData(line_id) + wordInLine(pa));
    }

    /** Displace every copy of @p pa_line already in the cache
     *  (reverse-lookup synonym snoop), before a fill installs it. */
    void selfSnoopSynonyms(PhysAddr pa_line);

    /** Invalidate valid line @p id and un-count it in the filter. */
    void
    dropLine(std::uint32_t id)
    {
        const std::uint64_t tag = lineTag[id];
        if (--copies[tag] == 0)
            resident[tag / 64] &= ~(std::uint64_t(1) << (tag % 64));
        lineState[id] = MesiState::Invalid;
    }

    /** Charge @p present + @p absent line flushes (@p write_back) or
     *  purges to the clock and counters with one add each. */
    void chargeLineOps(bool write_back, std::uint32_t present,
                       std::uint32_t absent);

    /** Shared flush/purge implementation. */
    bool removeLine(VirtAddr va, PhysAddr pa, bool write_back);

    /** Shared flushPage/purgePage implementation: one pass over the
     *  page's resident lines, in line order. @return number of lines
     *  that were present. */
    std::uint32_t removePage(VirtAddr page_va, PhysAddr page_pa,
                             bool write_back);

    /**
     * Call @p fn(line id) for every valid line holding the physical
     * line @p pa_line, in ascending candidate-set order. A virtual
     * index shares the page-offset bits with the physical address, so
     * only the colour bits are unknown: one candidate set per span
     * colour instead of a full scan. The walk is skipped when the
     * snoop filter counts no copy and stops once every counted copy
     * has been visited. @p fn may downgrade or drop the line.
     */
    template <typename Fn>
    void
    forEachCopy(PhysAddr pa_line, Fn &&fn)
    {
        const std::uint64_t tag = pa_line.lineNumber(geo.lineBytes());
        if (tag >= copies.size() || copies[tag] == 0)
            return;
        std::uint32_t left = copies[tag];
        const std::uint32_t lines_per_page = geo.linesPerPage();
        const std::uint32_t off_line = static_cast<std::uint32_t>(
            pa_line.offsetIn(geo.pageBytes()) / geo.lineBytes());
        const std::uint32_t span = geo.spanColours();
        for (std::uint32_t c = 0; c < span; ++c) {
            const std::uint32_t set =
                (c * lines_per_page + off_line) & (geo.numSets() - 1);
            for (std::uint32_t w = 0; w < geo.associativity(); ++w) {
                const std::uint32_t id = lineId(set, w);
                if (!lineValid(id) || lineTag[id] != tag)
                    continue;
                fn(id);
                if (--left == 0)
                    return;
            }
        }
    }

    /** Shared snoopBusRead/snoopBusInvalidate implementation. */
    SnoopReply snoopBus(PhysAddr pa_line, bool invalidate);
};

} // namespace vic

#endif // VIC_CACHE_CACHE_HH
