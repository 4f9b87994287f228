/**
 * @file
 * Unix-server buffer cache with write-behind.
 *
 * File data is staged in page-sized buffers mapped in the server's
 * address space. Buffers fill from the disk by DMA (a DMA-write into
 * memory, which requires the surrounding consistency work) and are
 * written back by DMA (a DMA-read from memory, which requires dirty
 * cache data to be flushed first). The write-behind policy delays the
 * write-back of dirty buffers, which — as the paper observes in
 * Section 5 — lets dirty cache lines drain naturally so the eventual
 * DMA-read flush finds little left to do.
 */

#ifndef VIC_OS_BUFFER_CACHE_HH
#define VIC_OS_BUFFER_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "os/os_params.hh"
#include "os/vm_object.hh"

namespace vic
{

class Kernel;

/** BufferCache's counters (common/stats.hh). */
enum class BufferCacheStat { Hits, Misses, WriteBacks, Count };
inline constexpr CounterTable<BufferCacheStat> kBufferCacheCounters{
    "bcache.hits",
    "bcache.misses",
    "bcache.write_backs"};

class BufferCache
{
  public:
    BufferCache(Kernel &k, const OsParams &os_params);

    /** Reference to a buffer holding one file block. */
    struct BufferRef
    {
        FrameId frame;
        VirtAddr kva;  ///< server-space address of the buffer
    };

    /**
     * Get the buffer for (@p file, @p block), filling it from disk if
     * necessary. @p whole_block_write skips the disk read when the
     * caller will overwrite the entire block.
     */
    BufferRef getBlock(FileId file, std::uint64_t block, bool for_write,
                       bool whole_block_write);

    /** Flush every dirty buffer to disk. */
    void sync();

    /** Flush oldest dirty buffers until at most the write-behind
     *  threshold remain dirty. */
    void writeBehind();

    /** Drop all buffers of @p file (dirty data is discarded — the file
     *  is being deleted). */
    void invalidateFile(FileId file);

    /** Dirty buffer count (tests). */
    std::uint32_t dirtyCount() const;

  private:
    struct Slot
    {
        bool valid = false;
        bool dirty = false;
        FileId file = invalidFile;
        std::uint64_t block = 0;
        FrameId frame = 0;
        bool frameAllocated = false;
        bool recycled = false;
        std::uint64_t lastUse = 0;
        std::uint64_t dirtiedAt = 0;
        /** Region backing in the server space, so a mapping broken for
         *  consistency reasons can always be re-faulted. */
        std::shared_ptr<VmObject> object;
    };

    Kernel &kernel;
    OsParams params;
    std::vector<Slot> slots;
    std::uint64_t useTick = 0;

    Counters<kBufferCacheCounters> counters;

    VirtAddr slotKva(std::uint32_t slot) const;

    /** Find the slot caching (file, block); -1 if absent. */
    int findSlot(FileId file, std::uint64_t block) const;

    /** Pick a victim slot (invalid first, else LRU), flushing it if
     *  dirty. */
    std::uint32_t reclaimSlot();

    /** Swap the slot's page for a fresh one from the free list (page
     *  churn, as in the original page-based buffer cache). */
    void recycleSlotFrame(std::uint32_t slot);

    /** Fill @p slot with (file, block) from disk (or zeros). */
    void fillSlot(std::uint32_t slot, FileId file, std::uint64_t block,
                  bool whole_block_write);

    /** Write @p slot's data back to disk. */
    void flushSlot(std::uint32_t slot);

    /** Ensure the slot has a frame and a server mapping. */
    void ensureSlotBacking(std::uint32_t slot);
};

} // namespace vic

#endif // VIC_OS_BUFFER_CACHE_HH
