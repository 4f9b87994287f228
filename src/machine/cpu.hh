/**
 * @file
 * Simulated CPU.
 *
 * Issues loads, stores and instruction fetches against the machine
 * through the staged access pipeline (DESIGN.md "Access pipeline"):
 *
 *   translate -> protect -> index -> tag-check -> account
 *
 * The common case — TLB hit, protection allows, cache line present —
 * runs straight-line through pre-resolved component references with a
 * single clock advance and no page-table walk (the TLB hands back a
 * mutable PTE handle, so referenced/modified bits are set directly).
 * Everything else (unmapped pages, protection traps, cache misses,
 * multiprocessor coherence, DMA busy-bits) falls back to the slow
 * path, whose trap-and-retry loop is the mechanism by which the
 * consistency algorithm interposes on exactly the accesses that need
 * cache state transitions.
 *
 * Observer hooks sit behind a null check plus an optional sampling
 * period (Machine::setObserverSampling), so observability costs one
 * predictable branch when off.
 *
 * A batched API (run(), loadRange(), storeRange(), copyRange(),
 * ifetchRange()) issues many accesses per call — semantically
 * identical to a loop of load()/store()/ifetch() (same values, stats,
 * cycles, faults, TLB and cache LRU state, and observer callbacks).
 * Beyond amortising per-call dispatch, the stride-4 data ranges
 * simulate each run of words that falls in one cache line in one step
 * — one TLB peek and one cache probe per line, and a closed form for
 * a copy whose source and destination lines thrash one direct-mapped
 * set (DESIGN.md "Line runs"). Anything a run cannot complete exactly
 * falls back to the per-word pipeline for one word. The OS kernel and
 * the mc executor drive this API.
 */

#ifndef VIC_MACHINE_CPU_HH
#define VIC_MACHINE_CPU_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "machine/machine.hh"
#include "mmu/fault.hh"

namespace vic
{

class Cpu
{
  public:
    /** Fault handler installed by the OS. Returns true if the access
     *  should be retried, false if it must abort (a workload bug). */
    using FaultHandler = std::function<bool(const Fault &)>;

    /** @param cpu_id which of the machine's CPUs this is (selects the
     *  private cache pair). */
    explicit Cpu(Machine &m, std::uint32_t cpu_id = 0);

    Machine &machine() { return mach; }

    std::uint32_t id() const { return cpuId; }

    /** Install the OS fault handler. */
    void setFaultHandler(FaultHandler handler)
    { faultHandler = std::move(handler); }

    /** Switch the current address space (context switch). */
    void setSpace(SpaceId space) { currentSpace = space; }

    SpaceId space() const { return currentSpace; }

    /** Load the aligned word at @p va in the current space. */
    std::uint32_t load(VirtAddr va);

    /** Store @p value to the aligned word at @p va. */
    void store(VirtAddr va, std::uint32_t value);

    /** Fetch the instruction word at @p va (goes through the
     *  instruction cache). */
    std::uint32_t ifetch(VirtAddr va);

    /** One decoded operation of the batched access API. */
    struct Op
    {
        AccessType type = AccessType::Load;
        VirtAddr va;
        std::uint32_t value = 0; ///< store data; ignored otherwise
    };

    /** Issue @p n operations back-to-back through the pipeline. */
    void run(const Op *ops, std::size_t n);

    /** Issue @p count loads at @p base, @p base + @p stride_bytes, ... */
    void loadRange(VirtAddr base, std::uint32_t count,
                   std::uint32_t stride_bytes);

    /** Issue @p count stores at @p base + i * @p stride_bytes of value
     *  @p seed + i * @p seed_step. */
    void storeRange(VirtAddr base, std::uint32_t count,
                    std::uint32_t stride_bytes, std::uint32_t seed,
                    std::uint32_t seed_step);

    /** Issue @p count copies of a word: for each i, a load of
     *  @p src + 4i, then a store of the loaded word to @p dst + 4i. */
    void copyRange(VirtAddr dst, VirtAddr src, std::uint32_t count);

    /** Issue @p count instruction fetches with stride @p stride_bytes. */
    void ifetchRange(VirtAddr base, std::uint32_t count,
                     std::uint32_t stride_bytes);

    /** Model @p n cycles of register-only computation. */
    void compute(Cycles n) { mach.clock().advance(n); }

    /** Total faults taken (for tests). */
    std::uint64_t faultCount() const { return faultsTaken; }

  private:
    Machine &mach;
    std::uint32_t cpuId;
    SpaceId currentSpace = 0;
    FaultHandler faultHandler;
    std::uint64_t faultsTaken = 0;

    // Pre-resolved pipeline handles: fixed for the machine's lifetime,
    // resolved once at construction so the fast path never chases
    // through Machine's accessors.
    Tlb &tlbRef;
    Cache &dcacheRef;
    Cache &icacheRef;
    const std::uint64_t pageBytesC;     ///< pageBytes
    const std::uint32_t lineBytesC;     ///< d-cache line bytes

    std::uint32_t obsTick = 0; ///< sampling counter (period > 1 only)

    std::vector<std::uint32_t> runValues; ///< one line of store values

    /** Core access path shared by load/store/ifetch. */
    std::uint32_t access(AccessType type, VirtAddr va,
                         std::uint32_t store_value);

    /** access() after its alignment check. */
    std::uint32_t accessAligned(AccessType type, VirtAddr va,
                                std::uint32_t store_value);

    /** Line runs are exact only while every access reaches the
     *  observer (a sampling period counts single accesses). */
    bool runsEnabled() const { return mach.observerSamplePeriod() <= 1; }

    /** A write-through d-cache refuses every store run. */
    bool
    storeRunsEnabled() const
    {
        return runsEnabled() &&
            dcacheRef.writePolicy() == WritePolicy::WriteBack;
    }

    /** Words from @p va to the end of its d-cache line, capped at
     *  @p limit. */
    std::uint32_t
    runLength(VirtAddr va, std::uint32_t limit) const
    {
        const std::uint32_t left = static_cast<std::uint32_t>(
            (lineBytesC - va.offsetIn(lineBytesC)) / 4);
        return left < limit ? left : limit;
    }

    /** Physical address of @p va through the translation @p pte. */
    PhysAddr
    physOf(const PageTableEntry &pte, VirtAddr va) const
    { return PhysAddr(pte.frame * pageBytesC + va.offsetIn(pageBytesC)); }

    /** Line runs of at most @p limit words at @p va (@p dst for a
     *  copy). @return the words completed, 0 if refused. */
    std::uint32_t loadRun(VirtAddr va, std::uint32_t limit);
    std::uint32_t storeRun(VirtAddr va, std::uint32_t limit,
                           std::uint32_t first_value, std::uint32_t step);
    std::uint32_t copyRun(VirtAddr dst, VirtAddr src, std::uint32_t limit);

    /** Stages index/tag-check/account for a translated, permitted
     *  access. */
    std::uint32_t accessMapped(AccessType type, VirtAddr va,
                               std::uint32_t store_value,
                               PageTableEntry *pte);

    /** Trap-and-retry loop for accesses the fast path rejected.
     *  @p pte is the (failed) translation of the first attempt. */
    std::uint32_t accessSlow(AccessType type, VirtAddr va,
                             std::uint32_t store_value,
                             PageTableEntry *pte);

    /** @return true iff this access should reach the observer. */
    bool
    observerDue()
    {
        const std::uint32_t period = mach.observerSamplePeriod();
        if (period <= 1)
            return true;
        return ++obsTick % period == 0;
    }

    /** Deliver a fault; @return true to retry. */
    bool deliver(const Fault &fault);
};

} // namespace vic

#endif // VIC_MACHINE_CPU_HH
