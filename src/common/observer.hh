/**
 * @file
 * Observation interface for memory-system transfers.
 *
 * The paper's correctness criterion is that "the memory system never
 * transfers a stale value to either the CPU or a device" (Section 3.1).
 * Every transfer that criterion talks about — CPU loads and instruction
 * fetches, CPU stores, device reads of memory (DMA-read) and device
 * writes into memory (DMA-write) — is reported through this interface
 * so the consistency oracle can validate it against a golden model.
 *
 * The *Run hooks report a run of consecutive words in one call (a CPU
 * line run, a DMA beat). Their defaults replay the run through the
 * per-word hooks in per-word order, so an observer that overrides only
 * those sees exactly the calls a word-by-word loop would make.
 */

#ifndef VIC_COMMON_OBSERVER_HH
#define VIC_COMMON_OBSERVER_HH

#include <cstdint>

#include "common/types.hh"

namespace vic
{

class MemoryObserver
{
  public:
    virtual ~MemoryObserver() = default;

    /** CPU load observed @p observed at physical address @p pa. */
    virtual void cpuLoad(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }

    /** CPU instruction fetch observed @p observed at @p pa. */
    virtual void cpuIFetch(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }

    /** CPU store of @p value to @p pa (program order defines this as
     *  the newest value of @p pa). */
    virtual void cpuStore(PhysAddr pa, std::uint32_t value)
    { (void)pa; (void)value; }

    /** A DMA device wrote @p value into memory at @p pa. */
    virtual void dmaWrite(PhysAddr pa, std::uint32_t value)
    { (void)pa; (void)value; }

    /** A DMA device read @p observed from the memory system at @p pa. */
    virtual void dmaRead(PhysAddr pa, std::uint32_t observed)
    { (void)pa; (void)observed; }

    /** CPU loads of the @p n words at @p pa, pa + 4, ... observed
     *  @p words. */
    virtual void
    cpuLoadRun(PhysAddr pa, const std::uint32_t *words, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            cpuLoad(pa.plus(std::uint64_t(i) * 4), words[i]);
    }

    /** CPU stores of @p words to the @p n words at @p pa, pa + 4, ... */
    virtual void
    cpuStoreRun(PhysAddr pa, const std::uint32_t *words, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            cpuStore(pa.plus(std::uint64_t(i) * 4), words[i]);
    }

    /** A CPU copy loop: for each i, a load of @p src + 4i observed
     *  @p words[i], then a store of it to @p dst + 4i. The two runs
     *  never overlap (they lie in different cache lines). */
    virtual void
    cpuCopyRun(PhysAddr src, PhysAddr dst, const std::uint32_t *words,
               std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            cpuLoad(src.plus(std::uint64_t(i) * 4), words[i]);
            cpuStore(dst.plus(std::uint64_t(i) * 4), words[i]);
        }
    }

    /** A DMA device wrote @p words into the @p n words at @p pa. */
    virtual void
    dmaWriteRun(PhysAddr pa, const std::uint32_t *words, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            dmaWrite(pa.plus(std::uint64_t(i) * 4), words[i]);
    }

    /** A DMA device read @p words from the @p n words at @p pa. */
    virtual void
    dmaReadRun(PhysAddr pa, const std::uint32_t *words, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            dmaRead(pa.plus(std::uint64_t(i) * 4), words[i]);
    }
};

} // namespace vic

#endif // VIC_COMMON_OBSERVER_HH
