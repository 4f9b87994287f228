/** @file Unit tests for the TLB. */

#include <gtest/gtest.h>

#include <vector>

#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "mmu/page_table.hh"
#include "tlb/tlb.hh"

namespace vic
{
namespace
{

class TlbTest : public ::testing::Test
{
  protected:
    TlbTest() : table(4096), tlb(4, 20, table, clk, stats) {}

    CycleClock clk;
    StatSet stats;
    PageTable table;
    Tlb tlb;
};

TEST_F(TlbTest, MissThenHit)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readWrite());

    const PageTableEntry *pte = tlb.translate(SpaceVa(1, VirtAddr(0x1234)));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->frame, 7u);
    EXPECT_EQ(stats.value("tlb.misses"), 1u);

    tlb.translate(SpaceVa(1, VirtAddr(0x1ff0)));
    EXPECT_EQ(stats.value("tlb.hits"), 1u);
}

TEST_F(TlbTest, MissChargesCycles)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    Cycles before = clk.now();
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(clk.now() - before, 20u);
    before = clk.now();
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(clk.now() - before, 0u);  // hits are free (parallel)
}

TEST_F(TlbTest, UnmappedReturnsNull)
{
    EXPECT_EQ(tlb.translate(SpaceVa(1, VirtAddr(0x9000))), nullptr);
    EXPECT_EQ(stats.value("tlb.misses"), 0u);  // no refill for nothing
}

TEST_F(TlbTest, SpacesAreDistinct)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    EXPECT_NE(tlb.translate(SpaceVa(1, VirtAddr(0x1000))), nullptr);
    EXPECT_EQ(tlb.translate(SpaceVa(2, VirtAddr(0x1000))), nullptr);
}

TEST_F(TlbTest, ReadsThroughProtectionChanges)
{
    // The pmap changes protections in the page table; the TLB must
    // never return a stale protection (it reads through).
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readWrite());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    table.setProtection(SpaceVa(1, VirtAddr(0x1000)),
                        Protection::readOnly());
    const PageTableEntry *pte = tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    ASSERT_NE(pte, nullptr);
    EXPECT_FALSE(pte->prot.write);
}

TEST_F(TlbTest, InvalidatePage)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    EXPECT_EQ(tlb.validCount(), 1u);
    tlb.invalidatePage(SpaceVa(1, VirtAddr(0x1abc)));  // same page
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST_F(TlbTest, InvalidateSpaceLeavesOthers)
{
    table.enter(SpaceVa(1, VirtAddr(0x1000)), 7, Protection::readOnly());
    table.enter(SpaceVa(2, VirtAddr(0x1000)), 8, Protection::readOnly());
    tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
    tlb.translate(SpaceVa(2, VirtAddr(0x1000)));
    tlb.invalidateSpace(1);
    EXPECT_EQ(tlb.validCount(), 1u);
    tlb.invalidateAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST_F(TlbTest, LruReplacementWithinCapacity)
{
    for (std::uint64_t p = 0; p < 5; ++p) {
        table.enter(SpaceVa(1, VirtAddr(p * 4096)), p,
                    Protection::readOnly());
    }
    for (std::uint64_t p = 0; p < 4; ++p)
        tlb.translate(SpaceVa(1, VirtAddr(p * 4096)));
    EXPECT_EQ(stats.value("tlb.misses"), 4u);
    // Touch page 0 so page 1 is the LRU victim.
    tlb.translate(SpaceVa(1, VirtAddr(0)));
    tlb.translate(SpaceVa(1, VirtAddr(4 * 4096)));  // evicts page 1
    tlb.translate(SpaceVa(1, VirtAddr(0)));         // still a hit
    EXPECT_EQ(stats.value("tlb.misses"), 5u);
    tlb.translate(SpaceVa(1, VirtAddr(1 * 4096)));  // miss (evicted)
    EXPECT_EQ(stats.value("tlb.misses"), 6u);
}

// ---------------------------------------------------------------------
// Differential test against a linear-scan LRU reference model
// ---------------------------------------------------------------------

/** A SplitMix64 stream: the op sequence of one differential run. */
struct SplitMix64
{
    std::uint64_t x;

    std::uint64_t
    next()
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/**
 * The TLB as the text book has it: an array of entries searched
 * linearly on every operation, the victim the first invalid entry,
 * else the least recently used one. No index of any kind.
 */
class RefTlb
{
  public:
    RefTlb(std::uint32_t n, std::uint32_t page_bytes, PageTable &table)
        : entries(n), pageBytes(page_bytes), pt(table)
    {
    }

    PageTableEntry *
    translate(SpaceVa key)
    {
        const SpaceVa page = canonical(key);
        if (Entry *e = find(page)) {
            e->lastUse = ++tick;
            ++hits;
            return e->pte;
        }
        PageTableEntry *pte = pt.lookupMutable(page);
        if (pte == nullptr)
            return nullptr;
        ++misses;
        Entry *victim = nullptr;
        for (Entry &e : entries) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (victim == nullptr || e.lastUse < victim->lastUse)
                victim = &e;
        }
        *victim = Entry{true, page, ++tick, pte};
        return pte;
    }

    PageTableEntry *
    peek(SpaceVa key)
    {
        Entry *e = find(canonical(key));
        return e ? e->pte : nullptr;
    }

    void
    noteHits(SpaceVa key, std::uint32_t n)
    {
        Entry *e = find(canonical(key));
        tick += n;
        e->lastUse = tick;
        hits += n;
    }

    void
    invalidatePage(SpaceVa key)
    {
        if (Entry *e = find(canonical(key)))
            e->valid = false;
    }

    void
    invalidateSpace(SpaceId space)
    {
        for (Entry &e : entries) {
            if (e.page.space == space)
                e.valid = false;
        }
    }

    void
    invalidateAll()
    {
        for (Entry &e : entries)
            e.valid = false;
    }

    std::uint32_t
    validCount() const
    {
        std::uint32_t n = 0;
        for (const Entry &e : entries)
            n += e.valid;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        bool valid = false;
        SpaceVa page;
        std::uint64_t lastUse = 0;
        PageTableEntry *pte = nullptr;
    };

    std::vector<Entry> entries;
    std::uint32_t pageBytes;
    PageTable &pt;
    std::uint64_t tick = 0;

    SpaceVa
    canonical(SpaceVa key) const
    { return SpaceVa(key.space, key.va.alignDown(pageBytes)); }

    Entry *
    find(SpaceVa page)
    {
        for (Entry &e : entries) {
            if (e.valid && e.page == page)
                return &e;
        }
        return nullptr;
    }
};

/**
 * Keys for the differential run. Most share the low 8 bits of their
 * SpaceVa::mix() — the home position in any index of up to 256
 * positions — at the last position (so probe chains wrap to 0), at 0
 * and at the one before last; the rest are spread over three spaces.
 * A few keys are never entered in the page table.
 */
std::vector<SpaceVa>
differentialKeys()
{
    std::vector<SpaceVa> keys;
    for (const std::uint64_t home : {255u, 0u, 254u}) {
        std::uint32_t found = 0;
        for (std::uint64_t p = 0; found < 8; ++p) {
            const SpaceVa k(SpaceId(1 + p % 3), VirtAddr(p * 4096));
            if ((k.mix() & 255) == home) {
                keys.push_back(k);
                ++found;
            }
        }
    }
    for (std::uint64_t p = 0; p < 140; ++p)
        keys.push_back(SpaceVa(SpaceId(1 + p % 3),
                               VirtAddr((1u << 20) + p * 4096)));
    return keys;
}

class TlbDifferentialTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TlbDifferentialTest, MatchesLinearScanLru)
{
    const std::uint32_t n = GetParam();
    const std::vector<SpaceVa> keys = differentialKeys();
    const std::size_t hot = 24;  // the colliding keys come first
    CycleClock clk;
    StatSet stats;
    PageTable table(4096);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 10 != 9)
            table.enter(keys[i], i, Protection::readWrite());
    }
    Tlb tlb(n, 20, table, clk, stats);
    RefTlb ref(n, 4096, table);

    SplitMix64 rng{0x71b0000 + n};
    bool filled = false;
    for (int step = 0; step < 40000; ++step) {
        // Half the ops go to the colliding keys, so chains form, wrap
        // and are shifted back by deletions.
        const SpaceVa page =
            keys[rng.below(2) ? rng.below(hot) : rng.below(keys.size())];
        const SpaceVa key(page.space, page.va.plus(4 * rng.below(1024)));
        // Phases of 2000 steps alternate refill churn, which fills the
        // TLB and evicts, with shootdown storms, which empty it.
        const bool churn = step / 2000 % 2 == 0;
        const std::uint64_t op = rng.below(1000);
        if (op < (churn ? 850u : 400u)) {
            ASSERT_EQ(tlb.translate(key), ref.translate(key))
                << "translate, step " << step;
        } else if (op < (churn ? 950u : 550u)) {
            const Tlb::Resident r = tlb.peek(key);
            ASSERT_EQ(r.pte, ref.peek(key)) << "peek, step " << step;
            if (r.pte != nullptr && op % 2 == 0) {
                const auto hits = std::uint32_t(1 + rng.below(8));
                tlb.noteHits(r, hits);
                ref.noteHits(key, hits);
            }
        } else if (op < (churn ? 998u : 900u)) {
            tlb.invalidatePage(key);
            ref.invalidatePage(key);
        } else if (op < (churn ? 999u : 980u)) {
            tlb.invalidateSpace(key.space);
            ref.invalidateSpace(key.space);
        } else {
            tlb.invalidateAll();
            ref.invalidateAll();
        }
        ASSERT_EQ(stats.value("tlb.hits"), ref.hits) << "step " << step;
        ASSERT_EQ(stats.value("tlb.misses"), ref.misses) << "step " << step;
        ASSERT_EQ(clk.now(), 20 * ref.misses) << "step " << step;
        ASSERT_EQ(tlb.validCount(), ref.validCount()) << "step " << step;
        filled |= ref.validCount() == n;
    }
    // The run reached the interesting states: a full TLB, evictions.
    EXPECT_TRUE(filled);
    EXPECT_GT(ref.misses, std::uint64_t(n));
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbDifferentialTest,
                         ::testing::Values(4u, 96u));

} // anonymous namespace
} // namespace vic
