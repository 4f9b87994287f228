#include "passes.hh"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>

#include "bench/suites.hh"
#include "experiment/experiment_engine.hh"
#include "experiment/json_artifact.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "workload/contrived_alias.hh"

namespace perfbench
{

using vic::ExperimentEngine;
using vic::MachineParams;
using vic::PolicyConfig;
using vic::RunSpec;

namespace
{

constexpr std::size_t kAfsBench = 0;
constexpr std::size_t kLatexPaper = 1;
constexpr std::size_t kKernelBuild = 2;

MachineParams
mesiMachine()
{
    MachineParams p = MachineParams::hp720();
    p.numCpus = 2;
    p.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    return p;
}

/** The fully hardware-coherent machine: MESI bus plus synonym,
 *  instruction-fetch and DMA snoops. */
MachineParams
hardwareMachine()
{
    MachineParams p = mesiMachine();
    p.synonymCoherence = true;
    p.ifetchCoherence = true;
    p.dmaSnoops = true;
    return p;
}

RunSpec
paperRun(std::size_t idx, const PolicyConfig &policy,
         const MachineParams &mp, const std::string &variant)
{
    return vic::bench::paperSpec("perf", idx, policy,
                                 vic::bench::SuiteOptions{}, mp, variant);
}

} // anonymous namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::PaperUni, Workload::AliasFault,
                       Workload::SmpCoherence, Workload::Sweep}) {
        if (name == workloadName(w))
            return w;
    }
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperUni: return "paper-uni";
      case Workload::AliasFault: return "alias-fault";
      case Workload::SmpCoherence: return "smp-coherence";
      case Workload::Sweep: return "sweep";
    }
    return "?";
}

std::vector<RunSpec>
passSpecs(Workload w, std::uint32_t replica)
{
    std::vector<RunSpec> specs;
    const MachineParams uni = MachineParams::hp720();
    switch (w) {
      case Workload::PaperUni:
        for (std::size_t idx : {kAfsBench, kLatexPaper, kKernelBuild}) {
            specs.push_back(paperRun(idx, PolicyConfig::configA(), uni, ""));
            specs.push_back(paperRun(idx, PolicyConfig::configF(), uni, ""));
        }
        break;
      case Workload::AliasFault:
        // No random stream: the seed changes nothing here.
        for (const PolicyConfig &policy :
             {PolicyConfig::configA(), PolicyConfig::configF()}) {
            RunSpec spec;
            spec.suite = "perf";
            spec.id = "perf/contrived-unaligned/" +
                      vic::bench::policyTag(policy);
            spec.make = [] {
                return std::make_unique<vic::ContrivedAlias>(
                    vic::ContrivedAlias::Params{.aligned = false,
                                                .totalWrites = 40000,
                                                .verifyReads = true});
            };
            spec.policy = policy;
            spec.machine = uni;
            specs.push_back(std::move(spec));
        }
        break;
      case Workload::SmpCoherence:
        for (std::size_t idx : {kAfsBench, kKernelBuild}) {
            specs.push_back(paperRun(idx, PolicyConfig::hardware(),
                                     hardwareMachine(), "hw"));
            specs.push_back(paperRun(idx, PolicyConfig::configF(),
                                     mesiMachine(), "mesi"));
        }
        break;
      case Workload::Sweep:
        for (const vic::bench::Suite *suite : vic::bench::allSuites()) {
            for (RunSpec &spec : suite->specs(vic::bench::SuiteOptions{}))
                specs.push_back(std::move(spec));
        }
        break;
    }
    for (RunSpec &spec : specs)
        spec.replica += replica;
    return specs;
}

MachineParams
probeMachine(Workload w)
{
    return w == Workload::SmpCoherence ? hardwareMachine()
                                       : MachineParams::hp720();
}

unsigned
sweepJobs()
{
    const unsigned cores = std::thread::hardware_concurrency();
    return std::clamp(cores, 1u, 4u);
}

namespace
{

/** Host seconds to construct the Machine, ConsistencyOracle and Kernel
 *  of @p spec; @p bus_ports receives the machine's coherence-bus port
 *  count. */
double
timeSetup(const RunSpec &spec, std::uint32_t &bus_ports)
{
    const auto t0 = Clock::now();
    vic::Machine machine(spec.machine);
    vic::ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    vic::Kernel kernel(machine, spec.policy, spec.os);
    const double seconds = secondsBetween(t0, Clock::now());
    bus_ports = machine.coherenceBus() != nullptr
                    ? std::uint32_t(machine.coherenceBus()->numPorts())
                    : 0;
    return seconds;
}

/** One run, step for step as runWorkload performs it, with the
 *  construction timed on its own. */
RunRecord
runMeasured(const RunSpec &spec, SpanRecorder *trace, std::uint32_t parent,
            std::uint32_t pass, PassRecord &rec)
{
    RunRecord run;
    vic::RunOutcome &out = run.outcome;
    out.id = spec.id;
    out.suite = spec.suite;
    out.policy = spec.policy.name;
    out.seed = spec.seed;
    out.replica = spec.replica;
    out.effectiveSeed = ExperimentEngine::effectiveSeed(spec.seed,
                                                        spec.replica);
    std::unique_ptr<vic::Workload> workload = spec.make();
    workload->reseed(out.effectiveSeed);
    out.workload = workload->name();

    ScopedSpan run_span(trace, "run", parent, pass);
    const auto t0 = Clock::now();
    std::optional<ScopedSpan> setup_span;
    setup_span.emplace(trace, "setup", run_span.id(), pass);
    vic::Machine machine(spec.machine);
    vic::ConsistencyOracle oracle(machine.memory().sizeBytes());
    SampledObserver sampled(oracle);
    machine.setObserver(trace != nullptr
                            ? static_cast<vic::MemoryObserver *>(&sampled)
                            : &oracle);
    vic::Kernel kernel(machine, spec.policy, spec.os);
    run.setupHostSeconds = secondsBetween(t0, Clock::now());
    setup_span.reset();
    run.busPorts = machine.coherenceBus() != nullptr
                       ? std::uint32_t(machine.coherenceBus()->numPorts())
                       : 0;

    try {
        ScopedSpan workload_span(trace, "workload", run_span.id(), pass);
        workload->run(kernel);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    } catch (...) {
        out.error = "unknown exception";
    }

    {
        ScopedSpan snapshot_span(trace, "snapshot", run_span.id(), pass);
        machine.stats().counter("os.freelist.colour_hits") +=
            kernel.freeList().colourHits();
        machine.stats().counter("os.freelist.colour_misses") +=
            kernel.freeList().colourMisses();
        vic::RunResult &r = out.result;
        r.workload = out.workload;
        r.policy = spec.policy.name;
        r.cycles = machine.clock().now();
        r.seconds = double(r.cycles) / spec.machine.clockHz;
        r.oracleViolations = oracle.violationCount();
        r.oracleChecked = oracle.checkedCount();
        r.stats = machine.stats().snapshot();
    }
    out.wallSeconds = secondsBetween(t0, Clock::now());
    run.pageTableWalks = machine.pageTable().walkCount();
    rec.oracleHostSeconds += sampled.selfSeconds();
    return run;
}

PassRecord
runSweepPass(const std::vector<RunSpec> &specs, HostSpeedPool &speed,
             SpanRecorder *trace, std::uint32_t pass)
{
    PassRecord rec;
    rec.jobs = sweepJobs();
    rec.runs.resize(specs.size());

    // Construction is timed outside the batch: the engine builds each
    // machine inside its worker, out of the benchmark's reach.
    double setup_host_seconds = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint32_t machines = std::max(1u, specs[i].replicaCount);
        for (std::uint32_t k = 0; k < machines; ++k)
            setup_host_seconds += timeSetup(specs[i], rec.runs[i].busPorts);
    }

    // Each workload the engine builds is preceded by a reference chunk
    // on the worker that runs it; a traced run also takes the run's
    // start there. The replicas of one spec run on one worker, so each
    // slot has one writer.
    struct Slot
    {
        double chunkSeconds = 0;
        std::uint64_t chunks = 0;
        std::optional<Clock::time_point> start;
    };
    std::vector<Slot> slots(specs.size());
    std::vector<RunSpec> batch = specs;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].make = [make = specs[i].make, slot = &slots[i], &speed,
                         traced = trace != nullptr] {
            slot->chunkSeconds += speed.chunk();
            ++slot->chunks;
            if (traced && !slot->start)
                slot->start = Clock::now();
            return make();
        };
    }

    speed.reset();
    ScopedSpan pass_span(trace, "pass", 0, pass);
    const auto t0 = Clock::now();
    {
        ScopedSpan batch_span(trace, "batch", pass_span.id(), pass);
        vic::ExperimentEngine::Options opts;
        opts.jobs = rec.jobs;
        std::vector<vic::RunOutcome> outcomes =
            vic::ExperimentEngine().run(batch, opts);
        const auto t1 = Clock::now();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            outcomes[i].wallSeconds -= slots[i].chunkSeconds;
            rec.chunkHostSeconds += slots[i].chunkSeconds;
            rec.chunks += slots[i].chunks;
        }
        {
            ScopedSpan artifact_span(trace, "artifact", batch_span.id(),
                                     pass);
            vic::ArtifactMeta meta;
            meta.jobs = rec.jobs;
            meta.wallSeconds = secondsBetween(t0, t1);
            rec.artifactBytes = vic::renderArtifact(meta, outcomes).size();
        }
        const auto t2 = Clock::now();
        rec.artifactHostSeconds = secondsBetween(t1, t2);
        rec.hostSeconds = secondsBetween(t0, t2) -
                          rec.chunkHostSeconds / rec.jobs;
        rec.referenceSeconds = referenceSeconds(
            rec.hostSeconds, rec.chunkHostSeconds, rec.chunks,
            HostSpeedReference::kChunkReferenceSeconds);
        rec.setupReferenceSeconds = rec.reference(setup_host_seconds);
        if (trace != nullptr) {
            for (std::size_t i = 0; i < outcomes.size(); ++i) {
                const Clock::time_point start = slots[i].start.value_or(t0);
                trace->add("run", batch_span.id(), pass, start,
                           start + std::chrono::duration_cast<
                                       Clock::duration>(
                                       std::chrono::duration<double>(
                                           outcomes[i].wallSeconds)));
            }
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            rec.runs[i].outcome = std::move(outcomes[i]);
    }
    return rec;
}

} // anonymous namespace

PassRecord
runPass(Workload w, const std::vector<RunSpec> &specs, HostSpeedPool &speed,
        SpanRecorder *trace, std::uint32_t pass)
{
    if (w == Workload::Sweep)
        return runSweepPass(specs, speed, trace, pass);

    PassRecord rec;
    speed.reset();
    ScopedSpan pass_span(trace, "pass", 0, pass);
    double before = speed.chunk();
    rec.chunkHostSeconds += before;
    ++rec.chunks;
    for (const RunSpec &spec : specs) {
        const RunRecord &run = rec.runs.emplace_back(
            runMeasured(spec, trace, pass_span.id(), pass, rec));
        const double after = speed.chunk();
        rec.chunkHostSeconds += after;
        ++rec.chunks;
        const auto scaled = [&](double host_seconds) {
            return referenceSeconds(host_seconds, before + after, 2,
                                    HostSpeedReference::kChunkReferenceSeconds);
        };
        rec.hostSeconds += run.outcome.wallSeconds;
        rec.referenceSeconds += scaled(run.outcome.wallSeconds);
        rec.setupReferenceSeconds += scaled(run.setupHostSeconds);
        before = after;
    }
    return rec;
}

} // namespace perfbench
