/**
 * @file
 * Page preparation: zero-fill and copy (Section 4.2, "Preparing new
 * pages with copy and zero-fill").
 *
 * The machine-independent VM layer prepares a new page's contents
 * through a temporary kernel mapping. Two policy-controlled
 * optimisations live here:
 *
 *  - aligned prepare (config D): the kernel window is chosen to align
 *    with the page's ultimate mapping, so the dirty data left by the
 *    preparation is already in the right cache page when the user
 *    touches it;
 *  - the enter() hints will_overwrite / need_data (configs F and E):
 *    preparation overwrites the whole page, so the stale target cache
 *    page needs no purge, and the frame's previous contents are dead,
 *    so a dirty previous cache page needs no flush.
 */

#ifndef VIC_OS_PAGE_PREPARER_HH
#define VIC_OS_PAGE_PREPARER_HH

#include <cstdint>
#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/pmap.hh"
#include "machine/cpu.hh"
#include "os/os_params.hh"

namespace vic
{

/** PagePreparer's counters (common/stats.hh). */
enum class PreparerStat { Zeroed, Copied, Count };
inline constexpr CounterTable<PreparerStat> kPreparerCounters{
    "os.pages_zeroed",
    "os.pages_copied"};

class PagePreparer
{
  public:
    PagePreparer(Cpu &c, Pmap &p, const OsParams &os_params);

    /** Fill @p frame with zeros. @p ultimate_va is the address the
     *  page will eventually be mapped at, if known. */
    void zeroPage(FrameId frame, std::optional<VirtAddr> ultimate_va);

    /** Copy @p src into @p dest. */
    void copyPage(FrameId dest, FrameId src,
                  std::optional<VirtAddr> ultimate_va);

  private:
    Cpu &cpu;
    Pmap &pmap;
    OsParams params;

    Counters<kPreparerCounters> counters;

    /** Kernel window for the destination page. */
    VirtAddr destWindow(std::optional<VirtAddr> ultimate_va) const;

    /** Kernel window for the copy source. */
    VirtAddr srcWindow(FrameId src) const;
};

} // namespace vic

#endif // VIC_OS_PAGE_PREPARER_HH
