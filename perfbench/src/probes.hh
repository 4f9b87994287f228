/**
 * @file
 * Per-layer probes: host nanoseconds per call of one layer's public
 * function, each on a fresh machine of the workload's MachineParams,
 * in a state shaped like the workload.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <utility>
#include <vector>

#include "machine/machine_params.hh"

namespace perfbench
{

/** What a probe takes from the workload it stands for. */
struct ProbeShape
{
    vic::MachineParams machine;
    /** Share of the lines a page flush/purge visits that are present
     *  in the cache (cache.page_op_present_ratio of the workload). */
    double pagePresentRatio = 0;
};

/** (metric name, host ns per call), in a fixed order. */
std::vector<std::pair<std::string, double>>
runProbes(const ProbeShape &shape);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
