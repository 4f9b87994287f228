#include "workload/runner.hh"

#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"

namespace vic
{

std::uint64_t
RunResult::stat(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second;
}

namespace
{

bool
matchesPattern(const std::string &name,
               const RunResult::StatPattern &p)
{
    if (!p.exact.empty())
        return name == p.exact;
    if (name.size() < p.prefix.size() + p.suffix.size())
        return false;
    if (name.compare(0, p.prefix.size(), p.prefix) != 0)
        return false;
    return name.compare(name.size() - p.suffix.size(),
                        p.suffix.size(), p.suffix) == 0;
}

} // anonymous namespace

std::uint64_t
RunResult::sumMatching(const std::string &prefix,
                       const std::string &suffix) const
{
    return sumMatchingAny(
        {{.exact = "", .prefix = prefix, .suffix = suffix}});
}

std::uint64_t
RunResult::sumMatchingAny(const std::vector<StatPattern> &patterns) const
{
    // Each counter contributes at most once, no matter how many
    // patterns select it: iterate counters (each name appears exactly
    // once in the map) and test against the pattern list, rather than
    // summing per-pattern.
    std::uint64_t total = 0;
    for (const auto &[name, value] : stats) {
        for (const auto &p : patterns) {
            if (matchesPattern(name, p)) {
                total += value;
                break;
            }
        }
    }
    return total;
}

RunResult
runWorkload(Workload &workload, const PolicyConfig &policy,
            const MachineParams &machine_params,
            const OsParams &os_params, std::size_t trace_events)
{
    Machine machine(machine_params);
    ConsistencyOracle oracle(machine.memory().sizeBytes());
    machine.setObserver(&oracle);
    if (trace_events > 0)
        machine.events().enable(trace_events);
    Kernel kernel(machine, policy, os_params);

    workload.run(kernel);

    // Kernel-held statistics that do not live in the machine's
    // StatSet are exported into it before the snapshot so every
    // metric a bench reads comes from the same capture point.
    const Counters<kFreelistCounters> freelist =
        machine.stats().registerTable<kFreelistCounters>();
    freelist[FreelistStat::ColourHits] += kernel.freeList().colourHits();
    freelist[FreelistStat::ColourMisses] +=
        kernel.freeList().colourMisses();

    RunResult r;
    r.workload = workload.name();
    r.policy = policy.name;
    r.cycles = machine.clock().now();
    // Derive seconds from the SAME clock read as r.cycles: a second
    // read could disagree with the counter snapshot if anything (a
    // phase reset, an observer) touched the clock in between, and the
    // two fields must never tell different stories.
    r.seconds = double(r.cycles) / machine_params.clockHz;
    r.oracleViolations = oracle.violationCount();
    r.oracleChecked = oracle.checkedCount();
    r.stats = machine.stats().snapshot();
    if (trace_events > 0)
        r.traceTail = machine.events().recent(trace_events);
    return r;
}

} // namespace vic
