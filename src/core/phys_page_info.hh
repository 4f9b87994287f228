/**
 * @file
 * Per-physical-page consistency bookkeeping (Section 4.1's data
 * structures and Table 3's encoding).
 *
 * For each resident physical page p the algorithm keeps, per cache:
 *
 *  - P[p].mapped — bit per cache page: which cache pages may contain
 *    data from p (set on CPU access through a virtual address of that
 *    colour);
 *  - P[p].stale  — bit per cache page: which cache pages may contain
 *    STALE data from p;
 *  - P[p].cache_dirty — p may be dirty in the (unique) mapped cache
 *    page (data cache only; the instruction cache is never dirty);
 *
 * plus the list of current virtual mappings of p. Table 3:
 *
 *      state    | mapped[c] | stale[c] | cache_dirty
 *      Empty    |   false   |  false   |     -
 *      Present  |   true    |  false   |   false
 *      Dirty    |   true    |  false   |   true
 *      Stale    |   false   |  true    |     -
 *
 * The number of cache pages is small (cache size / page size, e.g. 64
 * for a 256 KB cache with 4 KB pages), so mapped and stale are each
 * one machine word (common/colour_mask.hh) and every update the
 * algorithm makes — OR stale with mapped, clear, find-first, population
 * count, the invariant check — is a handful of word instructions. That
 * cheapness is itself one of the paper's claims ("the data structures
 * used by the algorithm lend themselves to efficient state
 * modification") and is measured by the micro_ops bench
 * (BM_ColourMaskStaleUpdate, BM_StateDecode).
 */

#ifndef VIC_CORE_PHYS_PAGE_INFO_HH
#define VIC_CORE_PHYS_PAGE_INFO_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/colour_mask.hh"
#include "common/types.hh"
#include "core/cache_page_state.hh"

namespace vic
{

/** The mapped/stale/dirty encoding for one physical page in one
 *  cache. */
class CacheStateVector
{
  public:
    CacheStateVector() = default;

    /** @param num_colours number of cache pages in this cache. */
    explicit CacheStateVector(std::uint32_t num_colours);

    std::uint32_t numColours() const { return mapped.size(); }

    ColourMask mapped;
    ColourMask stale;
    bool cacheDirty = false;

    /** Decode the Table 3 state of cache page @p colour. */
    CachePageState decode(CachePageId colour) const;

    /** The unique mapped cache page while cacheDirty is set — the
     *  paper's find_mapped_cache_page(). Must not be called unless
     *  cacheDirty. */
    CachePageId dirtyColour() const;

    /** Check the encoding invariants, one word operation each: mapped
     *  and stale are disjoint, and cacheDirty implies exactly one
     *  mapped bit. Panics on violation. */
    void checkInvariants() const;

    /** Reset to the all-empty (power-up / freshly-cleaned) state. */
    void clear();
};

/** One virtual mapping of a physical page. */
struct VaMapping
{
    SpaceVa va;           ///< page-aligned (space, virtual address)
    Protection vmProt;    ///< what the VM layer allows, before the
                          ///< cache state further restricts it
};

/** Everything the machine-dependent layer knows about one physical
 *  page. */
class PhysPageInfo
{
  public:
    PhysPageInfo() = default;

    /** @param d_colours data-cache colour count
     *  @param i_colours instruction-cache colour count */
    PhysPageInfo(std::uint32_t d_colours, std::uint32_t i_colours);

    std::vector<VaMapping> mappings;
    CacheStateVector dstate;  ///< data-cache consistency state
    CacheStateVector istate;  ///< instruction-cache consistency state

    /** Find the mapping for @p va; nullptr if absent. */
    VaMapping *findMapping(SpaceVa va);
    const VaMapping *findMapping(SpaceVa va) const;

    /** Add a mapping (must not already exist). */
    void addMapping(SpaceVa va, Protection vm_prot);

    /** Remove a mapping. @return true iff it existed. */
    bool removeMapping(SpaceVa va);

    bool hasMappings() const { return !mappings.empty(); }
};

} // namespace vic

#endif // VIC_CORE_PHYS_PAGE_INFO_HH
