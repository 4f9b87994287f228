/**
 * @file
 * Block-storage device attached to the DMA engine.
 *
 * Blocks are page sized. A block read completes with a DMA-write into
 * a physical frame; a block write is issued as a DMA-read from a
 * physical frame. The device keeps its own backing store so that data
 * written with stale cache lines unflushed really is corrupted on
 * "disk" and comes back corrupted — which is how the consistency
 * oracle catches a missing pre-DMA flush.
 */

#ifndef VIC_DMA_DISK_HH
#define VIC_DMA_DISK_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/cycle_clock.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dma/dma_engine.hh"

namespace vic
{

/** Disk's counters (common/stats.hh). */
enum class DiskStat { BlockReads, BlockWrites, Count };
inline constexpr CounterTable<DiskStat> kDiskCounters{
    "disk.block_reads",
    "disk.block_writes"};

class Disk
{
  public:
    /**
     * @param block_bytes block size (equal to the VM page size)
     * @param access_cycles modelled seek+rotation cost per request
     * @param engine    DMA engine used for transfers
     * @param clock     cycle clock
     * @param stat_set  statistics registry
     */
    Disk(std::uint32_t block_bytes, Cycles access_cycles,
         DmaEngine &engine, CycleClock &clock, StatSet &stat_set);

    std::uint32_t blockBytes() const { return blockSize; }

    /** Read block @p block into the frame at physical address @p pa
     *  (a DMA-write into memory). Unwritten blocks read as zero. */
    void readBlock(std::uint64_t block, PhysAddr pa);

    /** Write the frame at @p pa to block @p block (a DMA-read from
     *  memory). The device stages the frame's words and replaces the
     *  block only once the whole transfer has landed. */
    void writeBlock(std::uint64_t block, PhysAddr pa);

    /** Direct peek at stored data, for tests. Unwritten blocks read as
     *  zero. */
    std::uint32_t peekWord(std::uint64_t block,
                           std::uint32_t word_index) const;

  private:
    std::uint32_t blockSize;
    Cycles accessCycles;
    DmaEngine &dma;
    CycleClock &clk;

    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> blocks;

    Counters<kDiskCounters> counters;

    std::uint32_t wordsPerBlock() const { return blockSize / 4; }
};

} // namespace vic

#endif // VIC_DMA_DISK_HH
