/**
 * @file
 * Workload runner: builds a machine + oracle + kernel for one policy
 * configuration, executes a workload, and collects the evaluation
 * metrics the paper's tables report.
 */

#ifndef VIC_WORKLOAD_RUNNER_HH
#define VIC_WORKLOAD_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/policy_config.hh"
#include "machine/machine_params.hh"
#include "os/os_params.hh"
#include "workload/workload.hh"

namespace vic
{

/** Everything measured from one workload execution. */
struct RunResult
{
    std::string workload;
    std::string policy;

    Cycles cycles = 0;
    double seconds = 0;

    /** Oracle verdict: stale transfers detected (must be 0 for a
     *  correct policy). */
    std::uint64_t oracleViolations = 0;
    std::uint64_t oracleChecked = 0;

    /** Full statistics snapshot (counter name -> value), ordered by
     *  name so everything downstream iterates deterministically. */
    StatSnapshot stats;

    /** Tail of the machine's event log (empty unless tracing was
     *  requested). */
    std::vector<std::string> traceTail;

    /** Convenience accessor; 0 for missing counters. */
    std::uint64_t stat(const std::string &name) const;

    /** Sum of all counters whose names start with @p prefix and end
     *  with @p suffix — e.g. ("dcache", ".write_backs") covers both
     *  the uniprocessor "dcache.write_backs" and the per-CPU
     *  "dcacheN.write_backs" counters. */
    std::uint64_t sumMatching(const std::string &prefix,
                              const std::string &suffix) const;

    /** One counter-selection pattern: an exact name when @c exact is
     *  nonempty, otherwise a prefix+suffix match as in sumMatching. */
    struct StatPattern
    {
        std::string exact;
        std::string prefix;
        std::string suffix;
    };

    /** Sum of all counters selected by ANY pattern in @p patterns,
     *  counting each counter at most once even when several patterns
     *  select it. Derived metrics that need both an exact name and a
     *  prefix+suffix sweep (e.g. "dcache.write_backs" on a
     *  uniprocessor plus "dcacheN.write_backs" per CPU) must go
     *  through this so an overlapping counter cannot be
     *  double-counted. */
    std::uint64_t
    sumMatchingAny(const std::vector<StatPattern> &patterns) const;

    // Derived metrics used across the benches.
    std::uint64_t dPageFlushes() const
    { return stat("pmap.d_page_flushes"); }
    std::uint64_t dPagePurges() const
    { return stat("pmap.d_page_purges"); }
    std::uint64_t iPagePurges() const
    { return stat("pmap.i_page_purges"); }
    std::uint64_t mappingFaults() const
    { return stat("os.mapping_faults"); }
    std::uint64_t consistencyFaults() const
    { return stat("os.consistency_faults"); }
    std::uint64_t dmaReadFlushes() const
    { return stat("pmap.d_flush.dma_read"); }
    std::uint64_t dmaWritePurges() const
    { return stat("pmap.d_purge.dma_write"); }
    std::uint64_t dToICopies() const { return stat("os.d_to_i_copies"); }

    /** Data-cache write-backs on uni- AND multiprocessor machines:
     *  covers "dcache.write_backs" and the per-CPU
     *  "dcacheN.write_backs" without double-counting either. */
    std::uint64_t
    writeBacks() const
    {
        return sumMatchingAny({{.exact = "dcache.write_backs",
                                .prefix = "",
                                .suffix = ""},
                               {.exact = "",
                                .prefix = "dcache",
                                .suffix = ".write_backs"}});
    }
};

/**
 * Run @p workload once under @p policy on a machine configured by
 * @p machine_params, with the consistency oracle attached. If
 * @p trace_events is nonzero, the machine's event log records that
 * many most-recent consistency events into RunResult::traceTail.
 */
RunResult runWorkload(Workload &workload, const PolicyConfig &policy,
                      const MachineParams &machine_params =
                          MachineParams::hp720(),
                      const OsParams &os_params = {},
                      std::size_t trace_events = 0);

} // namespace vic

#endif // VIC_WORKLOAD_RUNNER_HH
