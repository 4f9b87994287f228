/**
 * @file
 * Golden-model consistency checker.
 *
 * The paper's correctness criterion (Section 3.1): "a correctly
 * functioning memory system must never transfer stale data to either
 * the CPU or a DMA device." The oracle maintains a shadow copy of the
 * newest value of every physical word, updated in program order by CPU
 * stores and device writes, and checks every CPU load, instruction
 * fetch and device read against it. Any mismatch is a consistency
 * violation: a stale cache line was read, a DMA transfer was shadowed,
 * or a dirty write-back clobbered newer data.
 *
 * Tests run every workload under every policy with the oracle attached
 * and require zero violations — and run a deliberately broken policy
 * to prove the machine model actually produces (and the oracle
 * detects) the failure modes the paper describes.
 */

#ifndef VIC_ORACLE_CONSISTENCY_ORACLE_HH
#define VIC_ORACLE_CONSISTENCY_ORACLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/observer.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace vic
{

class ConsistencyOracle : public MemoryObserver
{
  public:
    /** @param memory_bytes size of simulated physical memory. */
    explicit ConsistencyOracle(std::uint64_t memory_bytes);

    /** A detected stale transfer. */
    struct Violation
    {
        PhysAddr pa;
        std::uint32_t expected;
        std::uint32_t observed;
        std::string kind;  ///< "cpu-load", "cpu-ifetch" or "dma-read"
    };

    // MemoryObserver interface
    void cpuLoad(PhysAddr pa, std::uint32_t observed) override;
    void cpuIFetch(PhysAddr pa, std::uint32_t observed) override;
    void cpuStore(PhysAddr pa, std::uint32_t value) override;
    void dmaWrite(PhysAddr pa, std::uint32_t value) override;
    void dmaRead(PhysAddr pa, std::uint32_t observed) override;
    void cpuLoadRun(PhysAddr pa, const std::uint32_t *words,
                    std::uint32_t n) override;
    void cpuStoreRun(PhysAddr pa, const std::uint32_t *words,
                     std::uint32_t n) override;
    void cpuCopyRun(PhysAddr src, PhysAddr dst, const std::uint32_t *words,
                    std::uint32_t n) override;
    void dmaWriteRun(PhysAddr pa, const std::uint32_t *words,
                     std::uint32_t n) override;
    void dmaReadRun(PhysAddr pa, const std::uint32_t *words,
                    std::uint32_t n) override;

    /** @return true iff no violation has been observed. */
    bool clean() const { return faults.empty(); }

    /** Violations recorded so far (capped at maxRecorded). */
    const std::vector<Violation> &violations() const { return faults; }

    /** Total number of violations (beyond the recording cap). */
    std::uint64_t violationCount() const { return totalViolations; }

    /** Number of transfers checked. */
    std::uint64_t checkedCount() const { return checked; }

    /** Forget all shadow state and violations. */
    void reset();

    /**
     * Install a callback invoked synchronously on every detected
     * violation (even past the recording cap). Trace-replay drivers
     * use it to attribute a violation to the event being replayed.
     * Pass nullptr to remove.
     */
    void setViolationHook(std::function<void(const Violation &)> hook)
    {
        violationHook = std::move(hook);
    }

  private:
    static constexpr std::size_t maxRecorded = 64;

    std::function<void(const Violation &)> violationHook;

    ZeroedArray<std::uint32_t> shadow;
    ZeroedArray<std::uint64_t> defined; ///< bit i: word i was written
    std::vector<Violation> faults;
    std::uint64_t totalViolations = 0;
    std::uint64_t checked = 0;

    /** Word index of @p pa, whose @p n words must be aligned and in
     *  range (checked once for the whole run). */
    std::uint64_t index(PhysAddr pa, std::uint32_t n) const;
    bool isDefined(std::uint64_t idx) const
    { return (defined[idx / 64] >> (idx % 64)) & 1; }
    void record(PhysAddr pa, const std::uint32_t *values, std::uint32_t n);
    void check(PhysAddr pa, const std::uint32_t *observed, std::uint32_t n,
               const char *kind);
};

} // namespace vic

#endif // VIC_ORACLE_CONSISTENCY_ORACLE_HH
