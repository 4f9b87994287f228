/**
 * @file
 * Fleet throughput: multi-replica runs of the paper workloads.
 *
 * Each run executes several replicas of one workload — independent
 * simulations with SplitMix64-expanded seeds — one after another on
 * the engine worker that claimed the run, merged into a single
 * RunResult in replica order (mergeRunResults). Its runs carry the
 * largest simulated work per artifact entry of any suite.
 */

#include <cstdio>

#include "bench/suites.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace vic::bench
{
namespace
{

std::uint32_t
fleetReplicas(const SuiteOptions &opt)
{
    return opt.smoke ? 4 : 8;
}

std::vector<RunSpec>
fleetSpecs(const SuiteOptions &opt)
{
    const std::uint32_t replicas = fleetReplicas(opt);
    std::vector<RunSpec> specs;
    for (std::size_t w = 0; w < numPaperWorkloads; ++w) {
        RunSpec spec = paperSpec("fleet", w, PolicyConfig::configF(),
                                 opt, MachineParams::hp720(),
                                 format("r%u", replicas));
        spec.replicaCount = replicas;
        specs.push_back(std::move(spec));
    }
    return specs;
}

bool
fleetReport(const SuiteOptions &opt,
            const std::vector<RunOutcome> &outcomes)
{
    Table t({"Workload", "Replicas", "Merged cycles", "Sim seconds",
             "Oracle checked"});
    bool merged_scale = true;
    for (const RunOutcome &out : outcomes) {
        const RunResult &r = out.result;
        t.row();
        t.cell(r.workload);
        t.cell(std::uint64_t(out.replicaCount));
        t.cell(std::uint64_t(r.cycles));
        t.cell(r.seconds, 4);
        t.cell(r.oracleChecked);
        // A merged run must aggregate MORE work than any single
        // replica could: every replica contributes nonzero cycles and
        // oracle coverage, so the merged totals exceed the replica
        // count.
        merged_scale &= out.replicaCount > 1 &&
                        std::uint64_t(r.cycles) > out.replicaCount &&
                        r.oracleChecked >= out.replicaCount;
    }
    t.print();
    std::printf("\n");

    bool ok = outcomesClean(outcomes);
    ok &= shapeCheck(opt, merged_scale,
                     "every fleet run merges multiple nonzero-work "
                     "replicas");
    return ok;
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "fleet";
    s.title = "Fleet throughput: multi-replica paper workloads";
    s.paperRef = "Wheeler & Bershad 1992, Section 6 methodology "
                 "(replicated runs)";
    s.order = 60;
    s.specs = fleetSpecs;
    s.report = fleetReport;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
