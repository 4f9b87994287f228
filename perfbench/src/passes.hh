/**
 * @file
 * The benchmark's workloads and the pass that runs one of them.
 *
 * A pass runs every run of a workload once, each on a cold machine, in
 * a fixed order at a fixed seed set, so every pass of one invocation
 * simulates identical work. The simulator is driven from outside,
 * through its public API only: Machine + ConsistencyOracle + Kernel +
 * Workload::run (as runWorkload does) for the single-machine
 * workloads, ExperimentEngine::run over the registered suites' specs
 * for the sweep.
 */

#ifndef PERFBENCH_PASSES_HH
#define PERFBENCH_PASSES_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "experiment/run_spec.hh"
#include "host_speed.hh"
#include "metrics.hh"
#include "trace.hh"

namespace perfbench
{

enum class Workload
{
    PaperUni,
    AliasFault,
    SmpCoherence,
    Sweep,
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** The runs of one pass. @p replica selects the random streams: spec
 *  seeds are ExperimentEngine::effectiveSeed(calibrated seed,
 *  replica), so replica 0 is the paper's calibrated streams. */
std::vector<vic::RunSpec> passSpecs(Workload w, std::uint32_t replica);

/** Machine the workload's probes run on. */
vic::MachineParams probeMachine(Workload w);

/** Worker threads of the sweep: min(4, host cores). */
unsigned sweepJobs();

/** One executed run, with what the benchmark measures around it. */
struct RunRecord
{
    vic::RunOutcome outcome;
    /** Host seconds constructing Machine + ConsistencyOracle + Kernel
     *  (single-machine workloads only). */
    double setupHostSeconds = 0;
    /** Coherence-bus ports of the run's machine (0: no bus). */
    std::uint32_t busPorts = 0;
    /** PageTable::walkCount() at the end of the run (single-machine
     *  workloads only: the engine does not expose it). */
    std::uint64_t pageTableWalks = 0;
};

struct PassRecord
{
    std::vector<RunRecord> runs;
    /** Host seconds of the pass's simulator work; reference chunks and
     *  workload construction excluded. */
    double hostSeconds = 0;
    /** The same, in reference seconds (host_speed.hh). */
    double referenceSeconds = 0;
    /** Machine + ConsistencyOracle + Kernel construction, summed over
     *  the pass's machines, in reference seconds. */
    double setupReferenceSeconds = 0;
    /** Host-speed reference chunks run next to the pass's runs. */
    double chunkHostSeconds = 0;
    std::uint64_t chunks = 0;

    // Sweep only.
    unsigned jobs = 0;
    double artifactHostSeconds = 0;
    std::size_t artifactBytes = 0;

    /** Traced single-machine passes only: oracle host seconds,
     *  estimated by SampledObserver. */
    double oracleHostSeconds = 0;

    /** Other host seconds measured during this pass, in reference
     *  seconds at the pass's overall host speed. */
    double
    reference(double host_seconds) const
    {
        return hostSeconds > 0 ? host_seconds * referenceSeconds / hostSeconds
                               : host_seconds;
    }
};

/** Run one pass. Reference chunks from @p speed run on the thread that
 *  runs the simulator: around every run of a single-machine pass, whose
 *  times are scaled run by run with the two chunks around each run,
 *  and before every run of a sweep, whose times are scaled with the
 *  mean chunk of the batch. With a recorder, the pass is traced:
 *  spans are recorded and the oracle is reached through a
 *  SampledObserver. @p pass numbers the pass's spans. */
PassRecord runPass(Workload w, const std::vector<vic::RunSpec> &specs,
                   HostSpeedPool &speed, SpanRecorder *trace,
                   std::uint32_t pass);

} // namespace perfbench

#endif // PERFBENCH_PASSES_HH
