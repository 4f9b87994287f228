#include "dma/disk.hh"

#include <utility>

#include "common/logging.hh"

namespace vic
{

Disk::Disk(std::uint32_t block_bytes, Cycles access_cycles,
           DmaEngine &engine, CycleClock &clock, StatSet &stat_set)
    : blockSize(block_bytes), accessCycles(access_cycles), dma(engine),
      clk(clock),
      counters(stat_set.registerTable<kDiskCounters>())
{
    vic_assert(block_bytes % 4 == 0, "block size %u not word multiple",
               block_bytes);
}

void
Disk::readBlock(std::uint64_t block, PhysAddr pa)
{
    ++counters[DiskStat::BlockReads];
    clk.advance(accessCycles);
    auto it = blocks.find(block);
    if (it == blocks.end()) {
        const std::vector<std::uint32_t> zeros(wordsPerBlock(), 0);
        dma.deviceWrite(pa, zeros.data(), wordsPerBlock());
        return;
    }
    dma.deviceWrite(pa, it->second.data(), wordsPerBlock());
}

void
Disk::writeBlock(std::uint64_t block, PhysAddr pa)
{
    ++counters[DiskStat::BlockWrites];
    clk.advance(accessCycles);
    std::vector<std::uint32_t> staging(wordsPerBlock());
    dma.deviceRead(pa, staging.data(), wordsPerBlock());
    blocks[block] = std::move(staging);
}

std::uint32_t
Disk::peekWord(std::uint64_t block, std::uint32_t word_index) const
{
    vic_assert(word_index < wordsPerBlock(), "word index %u out of block",
               word_index);
    auto it = blocks.find(block);
    return it == blocks.end() ? 0 : it->second[word_index];
}

} // namespace vic
