/**
 * @file
 * Translation lookaside buffer.
 *
 * A fully associative translation cache over the page table, with LRU
 * replacement. On the modelled machine the TLB translates virtual page
 * frames to physical page frames in parallel with (virtually indexed)
 * cache lookup, so a TLB hit adds no cycles; only misses charge a
 * refill penalty. The pmap layer must shoot down entries whenever it
 * changes a translation or protection — the paper notes that on unmap
 * "other structures, however, such as TLB and page table entries, must
 * be invalidated to deny access to the data in the memory system"
 * (Section 2.3).
 *
 * This is stage 1 of the access pipeline (DESIGN.md "Access
 * pipeline"): translate() hands back a *mutable* page-table-entry
 * handle so the CPU can set referenced/modified bits directly,
 * without a second page-table walk per access. Each TLB entry caches
 * that handle. The handle stays valid because (a) the page table is a
 * node-based map — entries never move on insert, and enter() on a
 * mapped page assigns in place — and (b) every path that erases an
 * entry (Pmap::dropTranslation) shoots the TLB down first, so a
 * cached handle can never outlive its entry. Protection changes
 * mutate the entry in place and are therefore seen through the handle
 * immediately, preserving the historic read-through behaviour.
 *
 * The hot-path structure is a 1-entry MRU micro-cache (consecutive
 * accesses to one page resolve with a single compare — no hashing, no
 * scan) backed by a flat page -> slot index: a power-of-two array of
 * slot numbers, at most half full, probed linearly from the page's
 * SpaceVa::mix() home, with backward-shift deletion so no tombstones
 * build up. A lookup, refill or shootdown touches one short probe
 * chain and never the host allocator. The full-associativity LRU
 * semantics (victim = first invalid slot, else least recent) are
 * unchanged and pinned by tests/tlb_test.cc, which also checks the
 * index against a linear-scan reference model.
 */

#ifndef VIC_TLB_TLB_HH
#define VIC_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/page_table.hh"

namespace vic
{

/** Tlb's counters (common/stats.hh). */
enum class TlbStat { Hits, Misses, Count };
inline constexpr CounterTable<TlbStat> kTlbCounters{
    "tlb.hits",
    "tlb.misses"};

class Tlb
{
  public:
    /**
     * @param num_entries capacity (fully associative)
     * @param miss_penalty cycles charged on a refill
     * @param table     backing page table
     * @param clock     cycle clock
     * @param stat_set  statistics registry
     */
    Tlb(std::uint32_t num_entries, Cycles miss_penalty, PageTable &table,
        CycleClock &clock, StatSet &stat_set);

    /**
     * Translate the page containing @p key.va, refilling from the page
     * table on a miss. @return a mutable handle to the current
     * page-table entry (the access pipeline sets referenced/modified
     * through it), or nullptr if the page is unmapped (the caller
     * raises a fault).
     */
    PageTableEntry *
    translate(SpaceVa key)
    {
        const SpaceVa page(key.space, pageTable.pageBase(key.va));
        Entry *e = mru;
        if (e != nullptr && e->valid && e->page == page) {
            e->lastUse = ++useTick;
            ++counters[TlbStat::Hits];
            return e->pte;
        }
        return translateFull(page);
    }

    /** A resident translation found by peek(). */
    struct Resident
    {
        PageTableEntry *pte = nullptr; ///< nullptr: not resident
        std::uint32_t slot = 0;
    };

    /**
     * Find the resident translation of the page containing @p key.va
     * with no accounting and no refill. Line runs (Cpu) peek first and
     * charge the hits they commit with noteHits()/notePairHits().
     */
    Resident
    peek(SpaceVa key) const
    {
        const SpaceVa page(key.space, pageTable.pageBase(key.va));
        const Entry *e = mru;
        if (e == nullptr || !e->valid || e->page != page) {
            const std::uint32_t slot = slotIndex[indexPos(page)];
            if (slot == kNoSlot)
                return {};
            e = &entries[slot];
        }
        return {e->pte, static_cast<std::uint32_t>(e - entries.data())};
    }

    /** Account @p n translate() hits on @p r: the state n calls leave. */
    void
    noteHits(const Resident &r, std::uint32_t n)
    {
        Entry &e = entries[r.slot];
        useTick += n;
        e.lastUse = useTick;
        counters[TlbStat::Hits] += n;
        mru = &e;
    }

    /** Account @p n alternating translate() hits, @p first then
     *  @p second each time. */
    void
    notePairHits(const Resident &first, const Resident &second,
                 std::uint32_t n)
    {
        if (first.slot == second.slot) {
            noteHits(first, 2 * n);
            return;
        }
        useTick += 2 * std::uint64_t(n);
        entries[first.slot].lastUse = useTick - 1;
        entries[second.slot].lastUse = useTick;
        counters[TlbStat::Hits] += 2 * std::uint64_t(n);
        mru = &entries[second.slot];
    }

    /** Drop the cached entry for one page, if any. */
    void invalidatePage(SpaceVa key);

    /** Drop all cached entries for @p space. */
    void invalidateSpace(SpaceId space);

    /** Drop everything. */
    void invalidateAll();

    /** Number of currently valid entries (for tests). */
    std::uint32_t validCount() const;

  private:
    struct Entry
    {
        bool valid = false;
        SpaceVa page;
        std::uint64_t lastUse = 0;
        PageTableEntry *pte = nullptr; ///< cached handle (see file doc)
    };

    std::uint32_t capacity;
    Cycles missPenalty;
    PageTable &pageTable;
    CycleClock &clk;

    std::vector<Entry> entries;
    std::uint64_t useTick = 0;

    /** Most recently used entry; entries never reallocates, so the
     *  pointer is stable. Cleared by every invalidation. */
    Entry *mru = nullptr;

    /** Free position of slotIndex. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** page -> slot in entries (see file doc), holding exactly the
     *  valid entries. Lookup-only (never iterated), so determinism is
     *  unaffected. */
    std::vector<std::uint32_t> slotIndex;
    std::uint32_t indexMask;

    Counters<kTlbCounters> counters;

    /** Position of slotIndex at which @p page's probe chain holds its
     *  slot, or else ends (a kNoSlot position). */
    std::uint32_t
    indexPos(SpaceVa page) const
    {
        std::uint32_t pos = static_cast<std::uint32_t>(page.mix()) &
                            indexMask;
        for (;;) {
            const std::uint32_t slot = slotIndex[pos];
            if (slot == kNoSlot || entries[slot].page == page)
                return pos;
            pos = (pos + 1) & indexMask;
        }
    }

    /** Empty position @p pos of slotIndex, then close the gap by
     *  shifting later members of the chain back toward their homes. */
    void indexErase(std::uint32_t pos);

    /** Hit-via-index and miss/refill paths (out of line). */
    PageTableEntry *translateFull(SpaceVa page);

    void invalidateSlot(Entry &e);
};

} // namespace vic

#endif // VIC_TLB_TLB_HH
