/**
 * @file
 * Machine-dependent virtual memory layer (Mach's "pmap") with cache
 * consistency management.
 *
 * The machine-independent VM layer (src/os) calls this interface to
 * create and destroy translations, resolve protection faults, and
 * prepare for DMA. Concrete strategies:
 *
 *  - LazyPmap: the paper's contribution — the Figure 1 CacheControl
 *    algorithm over explicit per-(physical page, cache page) state,
 *    delaying flushes and purges until an inconsistency would be
 *    observed;
 *  - ClassicPmap: the "old" eager, case-by-case strategy of Section
 *    2.5 and the related-work systems of Table 5.
 *
 * Both run against the same simulated machine and are interchangeable
 * under the OS layer, which is how the benches compare configurations.
 */

#ifndef VIC_CORE_PMAP_HH
#define VIC_CORE_PMAP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/policy_config.hh"
#include "machine/machine.hh"
#include "mmu/fault.hh"

namespace vic
{

class Pmap
{
  public:
    /** Semantic hints for enter() (Section 4.1's two optimisations).
     *  They are requests; a policy honours them only if its
     *  configuration enables the corresponding optimisation. */
    struct EnterHints
    {
        /** Every byte of the page will be overwritten through this
         *  mapping before anything is read through it (zero-fill /
         *  copy destination): the purge of a stale target cache page
         *  can be elided. */
        bool willOverwrite = false;
        /** The frame's previous contents are still meaningful. When
         *  false (page being recycled and prepared), a dirty cache
         *  page can be purged instead of flushed. */
        bool needData = true;
    };

    Pmap(Machine &m, const PolicyConfig &policy_config);
    virtual ~Pmap() = default;

    Pmap(const Pmap &) = delete;
    Pmap &operator=(const Pmap &) = delete;

    Machine &machine() { return mach; }
    const PolicyConfig &config() const { return cfg; }

    /**
     * Create a translation from page-aligned @p va to @p frame.
     * @p vm_prot is the VM layer's maximum protection; the effective
     * hardware protection may be more restrictive to catch consistency
     * transitions. @p access is the access initiating the mapping.
     */
    virtual void enter(SpaceVa va, FrameId frame, Protection vm_prot,
                       AccessType access, const EnterHints &hints) = 0;

    /** Remove the translation for @p va (no-op if absent). */
    virtual void remove(SpaceVa va) = 0;

    /** Lower the VM-level protection of an existing mapping (e.g. for
     *  copy-on-write). */
    virtual void protect(SpaceVa va, Protection vm_prot) = 0;

    /**
     * A protection fault occurred on an existing mapping. If the
     * denial was due to cache consistency state, perform the required
     * transitions and return true (the access is retried). If the
     * denial is a genuine VM-level one (e.g. write to a copy-on-write
     * page), return false so the OS can handle it.
     */
    virtual bool resolveConsistencyFault(SpaceVa va,
                                         AccessType access) = 0;

    /** Prepare for a device read of @p frame from memory (DMA-read):
     *  dirty cache data must reach memory first. @p need_data is false
     *  if the frame's contents are dead (never the case for real
     *  output, used by tests). */
    virtual void dmaRead(FrameId frame, bool need_data) = 0;

    /** Prepare for a device write into @p frame (DMA-write): cached
     *  copies must not shadow or overwrite the device's data. */
    virtual void dmaWrite(FrameId frame) = 0;

    /** The frame is being returned to the free list. All mappings must
     *  already be removed. */
    virtual void frameFreed(FrameId frame) = 0;

    /**
     * The data-cache colour at which mapping @p frame would require no
     * consistency work (where its data currently lives in the cache),
     * or nullopt if the frame has no cache footprint. Drives the OS's
     * alignment decisions and the per-colour free list.
     */
    virtual std::optional<CachePageId>
    preferredColour(FrameId frame) const = 0;

    /** All live virtual mappings of @p frame (used by the pageout
     *  daemon to evict every translation before swapping a page). */
    virtual std::vector<SpaceVa> mappingsOf(FrameId frame) const = 0;

    /** Strategy name for reports. */
    virtual const char *kindName() const = 0;

    /** Factory: build the pmap strategy selected by @p policy_config. */
    static std::unique_ptr<Pmap> create(Machine &m,
                                        const PolicyConfig &policy_config);

    // --- shared geometry helpers ---

    /** Data-cache colour of @p va. */
    CachePageId dColourOf(VirtAddr va) const
    { return mach.dcache().geometry().colourOf(va); }

    /** Instruction-cache colour of @p va. */
    CachePageId iColourOf(VirtAddr va) const
    { return mach.icache().geometry().colourOf(va); }

    /** A synthetic kernel-equivalent virtual address of data-cache
     *  colour @p colour, usable to index the cache for flush/purge of
     *  pages that may no longer be mapped. */
    VirtAddr dColourVa(CachePageId colour) const
    { return VirtAddr(std::uint64_t(colour) * mach.pageBytes()); }

    /** Likewise for the instruction cache. */
    VirtAddr iColourVa(CachePageId colour) const
    { return VirtAddr(std::uint64_t(colour) * mach.pageBytes()); }

  protected:
    Machine &mach;
    PolicyConfig cfg;

    // --- cache page operations with statistics attribution ---
    // @p reason tags the operation for the evaluation tables, e.g.
    // "unmap", "newmap", "alias", "dma_read", "dma_write", "ifetch".

    void flushDataPage(FrameId frame, CachePageId colour,
                       const char *reason);
    void purgeDataPage(FrameId frame, CachePageId colour,
                       const char *reason);
    void purgeInstPage(FrameId frame, CachePageId colour,
                       const char *reason);

    // --- page table + TLB updates ---

    /** Install or update the hardware translation. */
    void setTranslation(SpaceVa va, FrameId frame, Protection prot);

    /** Drop the hardware translation. @return old modified bit. */
    bool dropTranslation(SpaceVa va);

    /** Update protection of an existing translation. */
    void setHardwareProt(SpaceVa va, Protection prot);

  private:
    Counter &statDFlushes;
    Counter &statDPurges;
    Counter &statIPurges;

    /** Per-(kind, reason) counters already registered, so a page op
     *  neither formats its counter name nor looks it up by name. */
    struct ReasonSlot
    {
        const char *kind; ///< one of pmap.cc's literals, by address
        std::string reason;
        Counter *counter;
    };
    std::vector<ReasonSlot> reasonSlots;

    Counter &reasonCounter(const char *kind, const char *reason);
};

} // namespace vic

#endif // VIC_CORE_PMAP_HH
