/**
 * @file
 * Simulated physical memory.
 *
 * A flat, word-addressable (32-bit words) store divided into page
 * frames. The cache simulator fills and writes back lines against this
 * store; the DMA engine reads and writes it directly, bypassing the
 * caches — exactly the paper's machine model, where devices do not
 * snoop. Storing real data (not just metadata) is what lets an
 * incorrectly managed cache actually return stale values, which the
 * consistency oracle then detects.
 */

#ifndef VIC_MEM_PHYSICAL_MEMORY_HH
#define VIC_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>

#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace vic
{

class PhysicalMemory
{
  public:
    /** Construct @p num_frames frames of @p page_size bytes each.
     *  @p page_size must be a multiple of 4. */
    PhysicalMemory(std::uint64_t num_frames, std::uint32_t page_size);

    std::uint64_t numFrames() const { return frames; }
    std::uint32_t pageSize() const { return pageBytes; }
    std::uint64_t sizeBytes() const { return frames * pageBytes; }

    /** Frame containing physical address @p pa. */
    FrameId frameOf(PhysAddr pa) const { return pa.frame(pageBytes); }

    /** First physical address of frame @p frame. */
    PhysAddr baseOf(FrameId frame) const
    { return PhysAddr(frame * pageBytes); }

    /** Read the aligned 32-bit word at @p pa. */
    std::uint32_t readWord(PhysAddr pa) const;

    /** Write the aligned 32-bit word at @p pa. */
    void writeWord(PhysAddr pa, std::uint32_t value);

    /** Copy @p nwords words starting at @p pa into @p out (cache line
     *  fill). @p pa must be word aligned. */
    void readWords(PhysAddr pa, std::uint32_t *out,
                   std::uint32_t nwords) const;

    /** Copy @p nwords words from @p in to @p pa (cache line
     *  write-back or DMA input). */
    void writeWords(PhysAddr pa, const std::uint32_t *in,
                    std::uint32_t nwords);

  private:
    std::uint64_t frames;
    std::uint32_t pageBytes;
    ZeroedArray<std::uint32_t> store;

    std::uint64_t wordIndex(PhysAddr pa) const;
};

} // namespace vic

#endif // VIC_MEM_PHYSICAL_MEMORY_HH
