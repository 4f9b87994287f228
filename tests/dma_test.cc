/** @file Unit tests for the DMA engine, its tickets and the disk
 *  device. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/cycle_clock.hh"
#include "common/observer.hh"
#include "common/stats.hh"
#include "dma/disk.hh"
#include "dma/dma_engine.hh"
#include "mem/physical_memory.hh"

namespace vic
{
namespace
{

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest()
        : mem(16, 4096), dma(DmaCosts{}, mem, clk, stats),
          disk(4096, 1000, dma, clk, stats)
    {
    }

    PhysicalMemory mem;
    CycleClock clk;
    StatSet stats;
    DmaEngine dma;
    Disk disk;
};

TEST_F(DmaTest, DeviceWriteLandsInMemory)
{
    std::uint32_t data[4] = {1, 2, 3, 4};
    dma.deviceWrite(PhysAddr(0x1000), data, 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x1000 + 4 * i)), data[i]);
}

TEST_F(DmaTest, DeviceReadSeesMemoryNotCache)
{
    // Non-snooping DMA reads physical memory even when the cache
    // holds newer data: the OS must flush first.
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    cache.write(VirtAddr(0x1000), PhysAddr(0x1000), 99);

    std::uint32_t out[1] = {~0u};
    dma.deviceRead(PhysAddr(0x1000), out, 1);
    EXPECT_EQ(out[0], 0u);  // stale memory: the paper's DMA-read hazard
}

TEST_F(DmaTest, SnoopingReadDrainsDirtyLines)
{
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    dma.attachSnoopedCache(&cache);
    EXPECT_TRUE(dma.snooping());

    cache.write(VirtAddr(0x1000), PhysAddr(0x1000), 99);
    std::uint32_t out[1] = {0};
    dma.deviceRead(PhysAddr(0x1000), out, 1);
    EXPECT_EQ(out[0], 99u);  // coherent DMA (Section 3.3 variant)
}

TEST_F(DmaTest, SnoopingWriteInvalidatesCachedCopies)
{
    CacheGeometry geo(64 * 1024, 32, 4096, 1, Indexing::Virtual);
    Cache cache("d", geo, CacheCosts{}, WritePolicy::WriteBack, mem,
                clk, stats);
    dma.attachSnoopedCache(&cache);

    cache.read(VirtAddr(0x1000), PhysAddr(0x1000));  // cache the line
    std::uint32_t data[1] = {42};
    dma.deviceWrite(PhysAddr(0x1000), data, 1);
    EXPECT_FALSE(cache.probe(VirtAddr(0x1000), PhysAddr(0x1000)).present);
    EXPECT_EQ(cache.read(VirtAddr(0x1000), PhysAddr(0x1000)), 42u);
}

TEST_F(DmaTest, TransfersChargeCycles)
{
    std::uint32_t data[8] = {};
    Cycles before = clk.now();
    dma.deviceWrite(PhysAddr(0), data, 8);
    EXPECT_EQ(clk.now() - before, DmaCosts{}.setup + 8 * DmaCosts{}.perWord);
}

TEST_F(DmaTest, StatsCountTransfers)
{
    std::uint32_t data[2] = {};
    dma.deviceWrite(PhysAddr(0), data, 2);
    dma.deviceRead(PhysAddr(0), data, 2);
    EXPECT_EQ(stats.value("dma.device_writes"), 1u);
    EXPECT_EQ(stats.value("dma.device_reads"), 1u);
    EXPECT_EQ(stats.value("dma.words_moved"), 4u);
}

TEST_F(DmaTest, DiskRoundTrip)
{
    // Put a pattern in frame 2, write it to block 7, zero the frame,
    // read the block back.
    for (std::uint32_t i = 0; i < 1024; ++i)
        mem.writeWord(PhysAddr(2 * 4096 + 4 * i), i * 3);
    disk.writeBlock(7, PhysAddr(2 * 4096));
    for (std::uint32_t i = 0; i < 1024; ++i)
        mem.writeWord(PhysAddr(2 * 4096 + 4 * i), 0);

    disk.readBlock(7, PhysAddr(2 * 4096));
    for (std::uint32_t i = 0; i < 1024; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(2 * 4096 + 4 * i)), i * 3);
}

TEST_F(DmaTest, DiskUnwrittenBlocksReadAsZero)
{
    mem.writeWord(PhysAddr(0x3000), 123);
    disk.readBlock(99, PhysAddr(0x3000));
    EXPECT_EQ(mem.readWord(PhysAddr(0x3000)), 0u);
}

TEST_F(DmaTest, DiskPeekMatchesStored)
{
    mem.writeWord(PhysAddr(0x1000), 0xabcd);
    disk.writeBlock(3, PhysAddr(0x1000));
    EXPECT_EQ(disk.peekWord(3, 0), 0xabcdu);
    EXPECT_EQ(disk.peekWord(3, 1), 0u);
    EXPECT_EQ(disk.peekWord(42, 0), 0u);  // never written
}

TEST_F(DmaTest, DiskChargesAccessCycles)
{
    Cycles before = clk.now();
    disk.readBlock(0, PhysAddr(0));
    EXPECT_GE(clk.now() - before, 1000u);
}

// --- line-granular asynchronous stepping ------------------------------

TEST_F(DmaTest, StartWriteIsInvisibleUntilStepped)
{
    std::uint32_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = 100u + std::uint32_t(i);

    DmaTicket ticket = dma.startWrite(PhysAddr(0x2000), data, 16);
    EXPECT_TRUE(ticket.pending());
    EXPECT_EQ(dma.pendingTransfers(), 1u);
    // The command is latched but no beat has run: memory untouched.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 0u);

    // One beat moves exactly one 32-byte line (8 words).
    EXPECT_TRUE(ticket.step());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 100u + i);
    for (int i = 8; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 0u);
    EXPECT_TRUE(ticket.pending());

    EXPECT_TRUE(ticket.step());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(mem.readWord(PhysAddr(0x2000 + 4 * i)), 100u + i);
    EXPECT_FALSE(ticket.pending());
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    EXPECT_FALSE(ticket.step());
}

TEST_F(DmaTest, BeatsStopAtLineBoundaries)
{
    // A transfer starting mid-line first fills to the line boundary:
    // 0x2010 is word 4 of its 32-byte line, so the beats are 4+8+4.
    std::uint32_t data[16] = {};
    DmaTicket ticket = dma.startWrite(PhysAddr(0x2010), data, 16);

    auto beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->id, ticket.id());
    EXPECT_EQ(beat->pa, PhysAddr(0x2010));
    EXPECT_EQ(beat->nwords, 4u);
    EXPECT_TRUE(beat->deviceWrites);

    EXPECT_TRUE(ticket.step());
    beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->pa, PhysAddr(0x2020));
    EXPECT_EQ(beat->nwords, 8u);

    EXPECT_TRUE(ticket.step());
    beat = dma.nextBeat();
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->pa, PhysAddr(0x2040));
    EXPECT_EQ(beat->nwords, 4u);

    EXPECT_TRUE(ticket.step());
    EXPECT_FALSE(dma.nextBeat().has_value());
}

/** Logs per-word DMA hooks; the run hooks keep their defaults. */
struct WordLog : MemoryObserver
{
    std::vector<std::pair<PhysAddr, std::uint32_t>> writes, reads;
    void dmaWrite(PhysAddr pa, std::uint32_t v) override
    { writes.emplace_back(pa, v); }
    void dmaRead(PhysAddr pa, std::uint32_t v) override
    { reads.emplace_back(pa, v); }
};

/** Counts run hooks: one call per beat. */
struct RunLog : MemoryObserver
{
    std::vector<std::pair<PhysAddr, std::uint32_t>> writeRuns, readRuns;
    void
    dmaWriteRun(PhysAddr pa, const std::uint32_t *, std::uint32_t n) override
    {
        writeRuns.emplace_back(pa, n);
    }
    void
    dmaReadRun(PhysAddr pa, const std::uint32_t *, std::uint32_t n) override
    {
        readRuns.emplace_back(pa, n);
    }
};

TEST_F(DmaTest, UnsnoopedBeatsReportOneRunEach)
{
    // Beats of 4+8+4 words (see BeatsStopAtLineBoundaries): one run
    // call per beat, and through the defaults every word in order.
    std::uint32_t data[16];
    for (std::uint32_t i = 0; i < 16; ++i)
        data[i] = 100 + i;
    RunLog runs;
    dma.setObserver(&runs);
    dma.deviceWrite(PhysAddr(0x2010), data, 16);
    std::uint32_t out[16] = {};
    dma.deviceRead(PhysAddr(0x2010), out, 16);
    using Calls = std::vector<std::pair<PhysAddr, std::uint32_t>>;
    const Calls beats = {{PhysAddr(0x2010), 4},
                         {PhysAddr(0x2020), 8},
                         {PhysAddr(0x2040), 4}};
    EXPECT_EQ(runs.writeRuns, beats);
    EXPECT_EQ(runs.readRuns, beats);

    WordLog words;
    dma.setObserver(&words);
    dma.deviceWrite(PhysAddr(0x2010), data, 16);
    dma.deviceRead(PhysAddr(0x2010), out, 16);
    Calls expect;
    for (std::uint32_t i = 0; i < 16; ++i)
        expect.emplace_back(PhysAddr(0x2010 + 4 * i), 100 + i);
    EXPECT_EQ(words.writes, expect);
    EXPECT_EQ(words.reads, expect);
    for (std::uint32_t i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST_F(DmaTest, TicketStepsOnlyItsOwnTransfer)
{
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) {
        a[i] = 1;
        b[i] = 2;
    }
    DmaTicket ta = dma.startWrite(PhysAddr(0x1000), a, 8);
    DmaTicket tb = dma.startWrite(PhysAddr(0x3000), b, 8);
    EXPECT_EQ(dma.pendingTransfers(), 2u);

    // Step the *younger* transfer: the older one stays untouched.
    EXPECT_TRUE(tb.step());
    EXPECT_EQ(mem.readWord(PhysAddr(0x3000)), 2u);
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 0u);
    EXPECT_TRUE(ta.pending());
    EXPECT_FALSE(tb.pending());
    EXPECT_FALSE(tb.step());

    ta.wait();
    EXPECT_EQ(mem.readWord(PhysAddr(0x1000)), 1u);
    EXPECT_EQ(dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, AsyncReadObservesMemoryAtBeatTime)
{
    // The consistency window the model checker explores: data written
    // to memory between command and beat IS seen; data written after
    // the beat is NOT.
    std::uint32_t out[16] = {};
    DmaTicket ticket = dma.startRead(PhysAddr(0x4000), out, 16);

    mem.writeWord(PhysAddr(0x4000), 7u);  // before beat 0: visible
    EXPECT_TRUE(ticket.step());
    mem.writeWord(PhysAddr(0x4004), 9u);  // after beat 0: lost
    mem.writeWord(PhysAddr(0x4020), 11u); // before beat 1: visible
    EXPECT_TRUE(ticket.step());

    EXPECT_EQ(out[0], 7u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(out[8], 11u);
}

TEST_F(DmaTest, SyncPathEqualsStartPlusWait)
{
    // The synchronous entry points must charge and count exactly what
    // the async path does, so calibrated benches are unaffected.
    std::uint32_t data[12] = {};
    const Cycles before = clk.now();
    dma.deviceWrite(PhysAddr(0x1000), data, 12);
    const Cycles syncCost = clk.now() - before;

    const Cycles asyncStart = clk.now();
    dma.startWrite(PhysAddr(0x1000), data, 12).wait();
    EXPECT_EQ(clk.now() - asyncStart, syncCost);
    EXPECT_EQ(syncCost, DmaCosts{}.setup + 12 * DmaCosts{}.perWord);

    EXPECT_EQ(stats.value("dma.device_writes"), 2u);
    EXPECT_EQ(stats.value("dma.words_moved"), 24u);
}

// --- tickets: completion by construction ------------------------------
//
// A started transfer must finish before its frame is used again. The
// ticket a start returns enforces that at run time (a ticket destroyed
// with beats pending panics) and its [[nodiscard]] type at compile
// time (tests/compile_diag). Each case below is one shape a leak or a
// legitimate hand-off takes in real code.

/** A write-back helper that bails out early on @p bail, leaking its
 *  transfer on that path. */
void
writeBackUnlessBusy(DmaEngine &dma, std::uint32_t *out, bool bail)
{
    DmaTicket ticket = dma.startRead(PhysAddr(0x1000), out, 16);
    if (bail)
        return;
    ticket.wait();
}

/** A helper that starts a transfer and leaves finishing it to its
 *  caller. */
DmaTicket
beginFill(DmaEngine &dma, const std::uint32_t *words)
{
    return dma.startWrite(PhysAddr(0x2000), words, 16);
}

using DmaDeathTest = DmaTest;

TEST_F(DmaDeathTest, TicketDroppedOnEarlyReturnPanics)
{
    std::uint32_t out[16] = {};
    writeBackUnlessBusy(dma, out, false);
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    EXPECT_DEATH(writeBackUnlessBusy(dma, out, true),
                 "dropped with beats pending");
}

TEST_F(DmaDeathTest, TicketReturnedToAWaitingCallerIsFine)
{
    std::uint32_t words[16] = {};
    {
        DmaTicket ticket = beginFill(dma, words);
        EXPECT_TRUE(ticket.pending());
        ticket.wait();
    }
    beginFill(dma, words).wait();
    EXPECT_EQ(dma.pendingTransfers(), 0u);
    // A caller that drops the handed-over ticket is caught instead.
    EXPECT_DEATH(static_cast<void>(beginFill(dma, words)),
                 "dropped with beats pending");
}

TEST_F(DmaDeathTest, LambdaDroppingAPendingTicketPanics)
{
    std::uint32_t words[16] = {};
    auto deferred = [&] {
        DmaTicket ticket = dma.startWrite(PhysAddr(0x3000), words, 16);
        ticket.step();  // one beat of two, then dropped
    };
    EXPECT_DEATH(deferred(), "dropped with beats pending");
}

TEST_F(DmaDeathTest, OverwritingAPendingTicketPanics)
{
    std::uint32_t words[16] = {};
    EXPECT_DEATH(
        {
            DmaTicket ticket = dma.startWrite(PhysAddr(0x3000), words, 16);
            ticket = dma.startWrite(PhysAddr(0x4000), words, 16);
            ticket.wait();
        },
        "dropped with beats pending");
}

TEST_F(DmaTest, SettledTicketsDestructSilently)
{
    std::uint32_t words[16] = {};
    {
        // Moved-from: the obligation travels with the move.
        DmaTicket first = dma.startWrite(PhysAddr(0x1000), words, 16);
        DmaTicket second = std::move(first);
        EXPECT_FALSE(first.pending());
        EXPECT_FALSE(first.step());
        EXPECT_TRUE(second.pending());
        second.wait();
    }
    {
        // Zero words: complete at command time, nothing queued.
        DmaTicket empty = dma.startWrite(PhysAddr(0x1000), words, 0);
        EXPECT_FALSE(empty.pending());
        EXPECT_EQ(dma.pendingTransfers(), 0u);
    }
    {
        // Completed, and waiting again is a no-op.
        DmaTicket done = dma.startRead(PhysAddr(0x1000), words, 16);
        done.wait();
        EXPECT_FALSE(done.pending());
        done.wait();
    }
    DmaTicket none;
    EXPECT_FALSE(none.pending());
    EXPECT_EQ(dma.pendingTransfers(), 0u);
}

TEST_F(DmaTest, UnwindingPastAPendingTicketDoesNotPanic)
{
    // A failure the caller contains (the experiment engine isolates a
    // throwing run) must not become an abort on the way out.
    std::uint32_t words[16] = {};
    EXPECT_THROW(
        {
            DmaTicket ticket = dma.startWrite(PhysAddr(0x1000), words, 16);
            throw std::runtime_error("contained failure");
        },
        std::runtime_error);
}

} // anonymous namespace
} // namespace vic
