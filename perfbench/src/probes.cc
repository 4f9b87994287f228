#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/classic_pmap.hh"
#include "core/lazy_pmap.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "mem/free_page_list.hh"
#include "metrics.hh"
#include "mmu/page_table.hh"
#include "oracle/consistency_oracle.hh"
#include "os/kernel.hh"
#include "trace.hh"

namespace perfbench
{

using namespace vic;

namespace
{

constexpr int kRounds = 15;

/** Mean host seconds of one steady_clock::now() pair: the median of
 *  batch means, robust to a preempted batch. */
double
timerOverheadSeconds()
{
    constexpr int kPairs = 2000;
    std::vector<double> means;
    for (int b = 0; b < kRounds; ++b) {
        double sum = 0;
        for (int i = 0; i < kPairs; ++i) {
            const auto t0 = Clock::now();
            sum += secondsBetween(t0, Clock::now());
        }
        means.push_back(sum / kPairs);
    }
    return median(means);
}

/** Median host ns per call over kRounds batches of @p batch calls of
 *  @p op(i), after one warm-up batch. For calls far cheaper than a
 *  clock read. */
template <typename Op>
double
batchNs(std::uint32_t batch, Op &&op)
{
    for (std::uint32_t i = 0; i < batch; ++i)
        op(i);
    std::vector<double> ns;
    std::uint32_t i = 0;
    for (int r = 0; r < kRounds; ++r) {
        const auto t0 = Clock::now();
        for (std::uint32_t k = 0; k < batch; ++k)
            op(i++);
        ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 / batch);
    }
    return median(ns);
}

/** Median host ns of @p op(i) timed call by call, each after an
 *  untimed @p prep(i) that restores the state the call consumes. The
 *  clock's own cost is subtracted. */
template <typename Prep, typename Op>
double
callNs(std::uint32_t calls, double timer_s, Prep &&prep, Op &&op)
{
    std::vector<double> ns;
    for (std::uint32_t i = 0; i < calls; ++i) {
        prep(i);
        const auto t0 = Clock::now();
        op(i);
        ns.push_back(
            std::max(0.0, secondsBetween(t0, Clock::now()) - timer_s) *
            1e9);
    }
    return median(ns);
}

/** A CPU with one pmap, faults resolved as the kernel resolves
 *  consistency faults; enough to drive the access pipeline alone. */
struct PmapCpu
{
    Machine machine;
    std::unique_ptr<Pmap> pmap;
    Cpu cpu;

    PmapCpu(const MachineParams &mp, const PolicyConfig &policy)
        : machine(mp), pmap(Pmap::create(machine, policy)), cpu(machine)
    {
        cpu.setSpace(1);
        cpu.setFaultHandler([this](const Fault &f) {
            return pmap->resolveConsistencyFault(f.address, f.access);
        });
    }

    /** Map @p va (space 1) to frame 2 with every right. */
    void
    map(std::uint64_t va, AccessType access)
    {
        pmap->enter(SpaceVa(1, VirtAddr(va)), 2, Protection::all(),
                    access, {});
    }
};

MachineParams
withBus(MachineParams mp)
{
    if (mp.numCpus < 2)
        mp.numCpus = 2;
    mp.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    return mp;
}

} // anonymous namespace

std::vector<std::pair<std::string, double>>
runProbes(const ProbeShape &shape)
{
    const MachineParams &mp = shape.machine;
    const double timer_s = timerOverheadSeconds();
    std::vector<std::pair<std::string, double>> out;

    // --- machine: the Cpu access pipeline on a TLB + cache hit ------
    {
        PmapCpu pc(mp, PolicyConfig::configF());
        pc.map(0x1000, AccessType::Store);
        pc.cpu.store(VirtAddr(0x1000), 1);
        out.emplace_back("machine.load_hit_ns", batchNs(20000, [&](auto i) {
            pc.cpu.load(VirtAddr(0x1000 + (i & 63) * 4));
        }));
        out.emplace_back("machine.store_hit_ns", batchNs(20000, [&](auto i) {
            pc.cpu.store(VirtAddr(0x1000 + (i & 63) * 4), i);
        }));
    }

    // --- tlb ----------------------------------------------------------
    {
        Machine m(mp);
        // Twice as many pages as entries, visited in turn: under LRU
        // every translate misses and walks the page table.
        const std::uint32_t pages = 2 * mp.tlbEntries;
        for (std::uint32_t p = 0; p < pages; ++p)
            m.pageTable().enter(SpaceVa(1, VirtAddr(std::uint64_t(p) *
                                                    mp.pageBytes)),
                                p % mp.numFrames, Protection::readWrite());
        Tlb &tlb = m.tlb();
        out.emplace_back("tlb.translate_hit_ns", batchNs(20000, [&](auto) {
            tlb.translate(SpaceVa(1, VirtAddr(0x1000)));
        }));
        out.emplace_back("tlb.translate_miss_ns", batchNs(4000, [&](auto i) {
            tlb.translate(SpaceVa(
                1, VirtAddr(std::uint64_t(i % pages) * mp.pageBytes)));
        }));
    }

    // --- mmu: one mapping turnover on a warm page table ---------------
    {
        PageTable pt(mp.pageBytes);
        for (std::uint32_t p = 0; p < 64; ++p)
            pt.enter(SpaceVa(1, VirtAddr(std::uint64_t(p) * mp.pageBytes)),
                     p, Protection::readWrite());
        out.emplace_back("mmu.enter_remove_ns", batchNs(10000, [&](auto) {
            pt.enter(SpaceVa(2, VirtAddr(0x10000)), 99,
                     Protection::readWrite());
            pt.remove(SpaceVa(2, VirtAddr(0x10000)));
        }));
    }

    // --- cache: misses and page operations ----------------------------
    {
        Machine m(mp);
        Cache &d = m.dcache();
        const CacheGeometry &g = d.geometry();
        // ways + 1 lines that share set 0: under LRU each read misses.
        const std::uint64_t way_bytes =
            std::uint64_t(g.numSets()) * g.lineBytes();
        const std::uint32_t rivals = g.associativity() + 1;
        out.emplace_back("cache.read_miss_ns", batchNs(4000, [&](auto i) {
            const std::uint64_t a = (i % rivals) * way_bytes;
            d.read(VirtAddr(a), PhysAddr(a));
        }));

        // The page holds the workload's share of present lines, spread
        // over the page; flushed lines are dirty, purged ones clean.
        const std::uint32_t lpp = g.linesPerPage();
        const auto present = std::uint32_t(
            std::lround(shape.pagePresentRatio * lpp));
        const auto fill = [&](bool dirty) {
            for (std::uint32_t j = 0; j < present; ++j) {
                const std::uint64_t a =
                    std::uint64_t(j) * lpp / present * g.lineBytes();
                if (dirty)
                    d.write(VirtAddr(a), PhysAddr(a), j);
                else
                    d.read(VirtAddr(a), PhysAddr(a));
            }
        };
        out.emplace_back(
            "cache.flush_page_ns",
            callNs(
                400, timer_s, [&](auto) { fill(true); },
                [&](auto) { d.flushPage(VirtAddr(0), PhysAddr(0)); }));
        out.emplace_back(
            "cache.purge_page_ns",
            callNs(
                400, timer_s, [&](auto) { fill(false); },
                [&](auto) { d.purgePage(VirtAddr(0), PhysAddr(0)); }));
    }

    // --- cache (CoherenceBus): transactions no peer holds a copy for,
    // the common case, where every peer port is searched in full. A
    // uniprocessor workload has no bus; its probe uses a 2-CPU MESI
    // variant of its machine.
    {
        Machine m(withBus(mp));
        CoherenceBus &bus = *m.coherenceBus();
        const Cache *requester = &m.dcache(0);
        const std::uint32_t line = mp.dcacheLineBytes;
        out.emplace_back("cache.bus_read_ns", batchNs(10000, [&](auto i) {
            bus.busRead(requester, PhysAddr(std::uint64_t(i & 255) * line));
        }));
        out.emplace_back(
            "cache.bus_read_exclusive_ns", batchNs(10000, [&](auto i) {
                bus.busReadExclusive(
                    requester, PhysAddr(std::uint64_t(i & 255) * line));
            }));
    }
    {
        // One physical line read through two virtual colours in turn:
        // each read misses, fills, and self-snoops the other synonym.
        MachineParams smp = mp;
        smp.synonymCoherence = true;
        Machine m(smp);
        Cache &d = m.dcache();
        out.emplace_back(
            "cache.synonym_snoop_ns", batchNs(4000, [&](auto i) {
                d.read(VirtAddr((i & 1) * std::uint64_t(mp.pageBytes)),
                       PhysAddr(0));
            }));
    }

    // --- core (pmap / CacheControl) -----------------------------------
    {
        // Lazy F: a store through one alias faults, CacheControl
        // flushes/purges and re-protects, the store retries.
        PmapCpu pc(mp, PolicyConfig::configF());
        pc.map(0x1000, AccessType::Store);
        pc.map(0x2000, AccessType::Load);
        out.emplace_back(
            "core.consistency_fault_ns", batchNs(2000, [&](auto i) {
                pc.cpu.store(VirtAddr(i & 1 ? 0x1000 : 0x2000), 1);
            }));
        out.emplace_back("core.dma_read_ns", batchNs(4000, [&](auto) {
            pc.pmap->dmaRead(3, true);
        }));
    }
    {
        // Classic A: the same ping-pong breaks the alias each time.
        PmapCpu pc(mp, PolicyConfig::configA());
        pc.cpu.setFaultHandler([&pc](const Fault &f) {
            if (pc.pmap->resolveConsistencyFault(f.address, f.access))
                return true;
            if (f.type != FaultType::Unmapped)
                return false;
            pc.pmap->enter(f.address, 2, Protection::all(), f.access, {});
            return true;
        });
        pc.map(0x1000, AccessType::Store);
        pc.map(0x2000, AccessType::Load);
        out.emplace_back("core.break_alias_ns", batchNs(2000, [&](auto i) {
            pc.cpu.store(VirtAddr(i & 1 ? 0x1000 : 0x2000), 1);
        }));
    }

    // --- os -----------------------------------------------------------
    {
        Machine m(mp);
        Kernel k(m, PolicyConfig::configF());
        const TaskId task = k.createTask();
        constexpr std::uint32_t kPages = 32;
        VirtAddr region;
        out.emplace_back(
            "os.zero_fill_fault_ns",
            callNs(
                8 * kPages, timer_s,
                [&](auto i) {
                    if (i % kPages != 0)
                        return;
                    if (i != 0)
                        k.vmDeallocate(task, region);
                    region = k.vmAllocate(task, kPages);
                },
                [&](auto i) {
                    k.userStore(task,
                                region.plus(std::uint64_t(i % kPages) *
                                            mp.pageBytes),
                                1);
                }));
        const FileId file = k.fileCreate(task, "probe");
        constexpr std::uint32_t kBlocks = 8;
        k.fileWrite(task, file, 0, kBlocks * mp.pageBytes, 7);
        out.emplace_back("os.file_read_page_ns", batchNs(200, [&](auto i) {
            k.fileRead(task, file, std::uint64_t(i % kBlocks) * mp.pageBytes,
                       mp.pageBytes);
        }));
    }

    // --- dma: one page each way -----------------------------------------
    {
        Machine m(mp);
        const std::uint32_t words = mp.pageBytes / 4;
        std::vector<std::uint32_t> buf(words, 0x5a5a5a5a);
        out.emplace_back("dma.page_write_ns", batchNs(400, [&](auto) {
            m.dma().deviceWrite(m.frameAddr(2), buf.data(), words);
        }));
        out.emplace_back("dma.page_read_ns", batchNs(400, [&](auto) {
            m.dma().deviceRead(m.frameAddr(2), buf.data(), words);
        }));
    }

    // --- mem: a coloured allocation and its free ----------------------
    {
        const std::uint32_t colours = mp.dcacheGeometry().numColours();
        FreePageList fl(PolicyConfig::configF().freeListOrg, colours);
        for (FrameId f = 0; f < mp.numFrames; ++f)
            fl.free(f, CachePageId(f % colours));
        out.emplace_back(
            "mem.frame_alloc_free_ns", batchNs(20000, [&](auto i) {
                const auto a = fl.allocate(CachePageId(i % colours));
                fl.free(a->frame, CachePageId(i % colours));
            }));
    }

    // --- oracle: one checked load -------------------------------------
    {
        ConsistencyOracle oracle(std::uint64_t(mp.numFrames) * mp.pageBytes);
        constexpr std::uint32_t kWords = 1024;
        for (std::uint32_t w = 0; w < kWords; ++w)
            oracle.cpuStore(PhysAddr(w * 4), w * 2654435761u);
        out.emplace_back("oracle.check_ns", batchNs(20000, [&](auto i) {
            const std::uint32_t w = i % kWords;
            oracle.cpuLoad(PhysAddr(w * 4), w * 2654435761u);
        }));
    }
    return out;
}

} // namespace perfbench
