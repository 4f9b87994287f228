#include "tlb/tlb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vic
{

Tlb::Tlb(std::uint32_t num_entries, Cycles miss_penalty, PageTable &table,
         CycleClock &clock, StatSet &stat_set)
    : capacity(num_entries), missPenalty(miss_penalty), pageTable(table),
      clk(clock), entries(num_entries),
      slotIndex(std::bit_ceil(2 * std::uint64_t(num_entries)), kNoSlot),
      indexMask(static_cast<std::uint32_t>(slotIndex.size() - 1)),
      counters(stat_set.registerTable<kTlbCounters>())
{
    vic_assert(num_entries > 0, "TLB needs at least one entry");
}

void
Tlb::indexErase(std::uint32_t pos)
{
    std::uint32_t hole = pos;
    for (std::uint32_t at = (hole + 1) & indexMask;
         slotIndex[at] != kNoSlot; at = (at + 1) & indexMask) {
        // The member at `at` may fill the hole unless its home lies
        // cyclically in (hole, at]: then it would move before its home
        // and lookups starting there would miss it.
        const std::uint32_t home =
            static_cast<std::uint32_t>(entries[slotIndex[at]].page.mix()) &
            indexMask;
        if (((at - home) & indexMask) >= ((at - hole) & indexMask)) {
            slotIndex[hole] = slotIndex[at];
            hole = at;
        }
    }
    slotIndex[hole] = kNoSlot;
}

PageTableEntry *
Tlb::translateFull(SpaceVa page)
{
    std::uint32_t pos = indexPos(page);
    if (slotIndex[pos] != kNoSlot) {
        Entry &e = entries[slotIndex[pos]];
        e.lastUse = ++useTick;
        ++counters[TlbStat::Hits];
        mru = &e;
        return e.pte;
    }

    PageTableEntry *pte = pageTable.lookupMutable(page);
    if (!pte)
        return nullptr;

    ++counters[TlbStat::Misses];
    clk.advance(missPenalty);

    Entry *victim = nullptr;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (auto &e : entries) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            victim = &e;
        }
    }
    if (victim->valid) {
        indexErase(indexPos(victim->page));
        pos = indexPos(page);  // the erase may have shifted the chain
    }
    victim->valid = true;
    victim->page = page;
    victim->lastUse = ++useTick;
    victim->pte = pte;
    slotIndex[pos] = static_cast<std::uint32_t>(victim - entries.data());
    mru = victim;
    return pte;
}

void
Tlb::invalidateSlot(Entry &e)
{
    indexErase(indexPos(e.page));
    e.valid = false;
    e.pte = nullptr;
    if (mru == &e)
        mru = nullptr;
}

void
Tlb::invalidatePage(SpaceVa key)
{
    const SpaceVa page(key.space, pageTable.pageBase(key.va));
    const std::uint32_t slot = slotIndex[indexPos(page)];
    if (slot != kNoSlot)
        invalidateSlot(entries[slot]);
}

void
Tlb::invalidateSpace(SpaceId space)
{
    for (auto &e : entries) {
        if (e.valid && e.page.space == space)
            invalidateSlot(e);
    }
}

void
Tlb::invalidateAll()
{
    for (auto &e : entries) {
        e.valid = false;
        e.pte = nullptr;
    }
    std::fill(slotIndex.begin(), slotIndex.end(), kNoSlot);
    mru = nullptr;
}

std::uint32_t
Tlb::validCount() const
{
    std::uint32_t n = 0;
    for (const auto &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace vic
