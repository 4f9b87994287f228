/**
 * @file
 * Fleet throughput: multi-replica runs of the paper workloads,
 * exercising the intra-run shard path (--shards) end to end.
 *
 * Each run executes several replicas of one workload — independent
 * simulations with SplitMix64-expanded seeds — merged into a single
 * RunResult in replica order (shard_runner.hh). Under --shards N the
 * replicas spread across N host threads; the merged artifact entry is
 * byte-identical either way, which validate() proves directly by
 * running one spec at --shards 1 and --shards 3 and comparing the
 * serialised results.
 *
 * This is also the suite the throughput ratchet watches most closely:
 * its runs carry the largest sim_cycles per artifact entry, so a
 * hot-path regression (cache probe, translate walk, arena churn)
 * moves its cycles_per_host_second first.
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

/** Prove shard-count independence on a live spec: the merged result
 *  of --shards 1 and --shards 3 must serialise identically. Always at
 *  smoke scale — this is a determinism proof, not a perf probe. */
bool
fleetValidate(const SuiteOptions &)
{
    SuiteOptions smoke;
    smoke.smoke = true;
    RunSpec spec = paperSpec("fleet", 0, PolicyConfig::configF(),
                             smoke, MachineParams::hp720(), "probe");
    spec.replicaCount = 3;

    const RunOutcome serial = ExperimentEngine::runOne(spec, 1);
    const RunOutcome sharded = ExperimentEngine::runOne(spec, 3);
    const bool clean = serial.ok && sharded.ok;
    const bool identical =
        clean && runResultToJson(serial.result).dump() ==
                     runResultToJson(sharded.result).dump();
    std::printf("SHARD CHECK: %s (3-replica merge, --shards 1 vs 3)\n",
                identical ? "PASS" : "FAIL");
    return identical;
}

[[maybe_unused]] const bool registered = [] {
    Suite s;
    s.name = "fleet";
    s.title = "Fleet throughput: sharded multi-replica paper "
              "workloads";
    s.paperRef = "Wheeler & Bershad 1992, Section 6 methodology "
                 "(replicated runs)";
    s.order = 60;
    s.specs = fleetSpecs;
    s.report = fleetReport;
    s.validate = fleetValidate;
    registerSuite(std::move(s));
    return true;
}();

} // anonymous namespace
} // namespace vic::bench
