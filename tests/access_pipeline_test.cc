/** @file Tests for the staged access pipeline (DESIGN.md "Access
 *  pipeline"): fast-path vs slow-path equivalence on aliased pages,
 *  the fault-retry boundary, referenced/modified bits through the
 *  TLB's mutable PTE handle, page-table walks per access, observer
 *  sampling, and batched-vs-single access identity, including the
 *  line runs of the ranged calls on seeded twin machines. */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "machine/cpu.hh"
#include "machine/machine.hh"
#include "oracle/consistency_oracle.hh"

namespace vic
{
namespace
{

class AccessPipelineTest : public ::testing::Test
{
  protected:
    AccessPipelineTest() : machine(MachineParams::hp720()), cpu(machine)
    {
        cpu.setSpace(1);
    }

    void
    map(VirtAddr va, FrameId frame, Protection prot)
    {
        machine.pageTable().enter(SpaceVa(1, va), frame, prot);
    }

    Machine machine;
    Cpu cpu;
};

// ---------------------------------------------------------------------
// Fast-path vs slow-path equivalence on aliased pages.
// ---------------------------------------------------------------------

/** Two virtual pages of DIFFERENT cache colours mapped to one frame:
 *  the unaligned-alias configuration the paper's consistency rules
 *  exist for. One machine reaches the data entirely through the fast
 *  path (mapped read-write from the start); the other forces every
 *  first touch through the slow path (protection faults upgraded by
 *  the handler). Both must converge to identical functional state —
 *  loaded values and per-alias cache contents. */
TEST(AccessPipelineEquivalence, AliasedPagesFastVsSlowPath)
{
    const MachineParams params = MachineParams::hp720();
    // Distinct colours: the d-cache spans 16 pages, so va and
    // va + pageBytes land in different cache pages.
    const VirtAddr va_a(0x40000);
    const VirtAddr va_b(0x40000 + params.pageBytes);
    const FrameId frame = 7;

    auto drive = [&](Machine &m, Cpu &c) {
        c.store(va_a, 0x1111);
        c.store(va_b.plus(16), 0x2222);
        (void)c.load(va_a);
        (void)c.load(va_b);
        c.store(va_a.plus(16), 0x3333);
        (void)c.load(va_b.plus(16));
        (void)m;
    };

    // Fast machine: everything mapped read-write up front.
    Machine fast(params);
    Cpu fast_cpu(fast);
    fast_cpu.setSpace(1);
    fast.pageTable().enter(SpaceVa(1, va_a), frame,
                           Protection::readWrite());
    fast.pageTable().enter(SpaceVa(1, va_b), frame,
                           Protection::readWrite());
    drive(fast, fast_cpu);
    EXPECT_EQ(fast_cpu.faultCount(), 0u);

    // Slow machine: pages start read-only; every store's first touch
    // traps and the handler upgrades the protection in place.
    Machine slow(params);
    Cpu slow_cpu(slow);
    slow_cpu.setSpace(1);
    slow.pageTable().enter(SpaceVa(1, va_a), frame,
                           Protection::readOnly());
    slow.pageTable().enter(SpaceVa(1, va_b), frame,
                           Protection::readOnly());
    slow_cpu.setFaultHandler([&](const Fault &f) {
        EXPECT_EQ(f.type, FaultType::Protection);
        slow.pageTable().setProtection(f.address,
                                       Protection::readWrite());
        return true;
    });
    drive(slow, slow_cpu);
    EXPECT_GE(slow_cpu.faultCount(), 1u);

    // Functional state agrees: loads see the same words, and each
    // alias line holds the same data and dirty state in both caches.
    for (const VirtAddr va :
         {va_a, va_b, va_a.plus(16), va_b.plus(16)}) {
        const PhysAddr pa(frame * params.pageBytes +
                          va.offsetIn(params.pageBytes));
        const Cache::Probe pf = fast.dcache().probe(va, pa);
        const Cache::Probe ps = slow.dcache().probe(va, pa);
        EXPECT_EQ(pf.present, ps.present);
        EXPECT_EQ(pf.dirty, ps.dirty);
        EXPECT_EQ(pf.word, ps.word);
        EXPECT_EQ(fast_cpu.load(va), slow_cpu.load(va));
    }

    // The slow machine's extra cycles are exactly fault deliveries
    // (trap cost), never divergent cache behaviour.
    EXPECT_GT(slow.clock().now(), fast.clock().now());
}

// ---------------------------------------------------------------------
// Fault-retry boundary at maxFaultRetries.
// ---------------------------------------------------------------------

/** A handler that repairs the mapping on its 7th invocation lets the
 *  8th attempt (the last) succeed — the access completes with exactly
 *  7 faults. */
TEST_F(AccessPipelineTest, RetrySucceedsWhenFixedBeforeLastAttempt)
{
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        if (++faults == 7)
            map(f.address.va, 2, Protection::readWrite());
        return true;
    });
    cpu.store(VirtAddr(0x4000), 99);
    EXPECT_EQ(faults, 7);
    EXPECT_EQ(cpu.faultCount(), 7u);
    EXPECT_EQ(cpu.load(VirtAddr(0x4000)), 99u);
}

/** A handler that repairs the mapping only on its 8th invocation is
 *  one fault too late: all retry attempts are exhausted delivering
 *  faults, and the pipeline must diagnose the livelock rather than
 *  retry forever. */
TEST_F(AccessPipelineTest, RetryLivelocksWhenFixedOneFaultTooLate)
{
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        if (++faults == 8)
            map(f.address.va, 2, Protection::readWrite());
        return true;
    });
    EXPECT_DEATH(cpu.load(VirtAddr(0x4000)), "livelock");
}

// ---------------------------------------------------------------------
// Referenced/modified bits via the mutable PTE handle.
// ---------------------------------------------------------------------

/** translate() must hand back the live page-table entry itself — the
 *  same object lookupMutable() finds — and the pipeline must set
 *  referenced/modified through it. */
TEST_F(AccessPipelineTest, TranslateReturnsLivePteHandle)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    PageTableEntry *handle =
        machine.tlb().translate(SpaceVa(1, VirtAddr(0x4000)));
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle, machine.pageTable().lookupMutable(
                          SpaceVa(1, VirtAddr(0x4000))));

    EXPECT_FALSE(handle->referenced);
    (void)cpu.load(VirtAddr(0x4000));
    EXPECT_TRUE(handle->referenced);
    EXPECT_FALSE(handle->modified);
    cpu.store(VirtAddr(0x4000), 1);
    EXPECT_TRUE(handle->modified);
}

/** Protection changes mutate the entry in place, so a cached handle —
 *  and therefore a TLB hit — observes them immediately, even without
 *  a shootdown. This is the read-through behaviour the consistency
 *  algorithm's protection downgrades depend on. */
TEST_F(AccessPipelineTest, CachedHandleSeesInPlaceProtectionDowngrade)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());
    cpu.store(VirtAddr(0x4000), 5); // TLB entry + handle now cached
    machine.pageTable().setProtection(SpaceVa(1, VirtAddr(0x4000)),
                                      Protection::readOnly());
    int faults = 0;
    cpu.setFaultHandler([&](const Fault &f) {
        ++faults;
        EXPECT_EQ(f.type, FaultType::Protection);
        machine.pageTable().setProtection(f.address,
                                          Protection::readWrite());
        return true;
    });
    cpu.store(VirtAddr(0x4000), 6); // must trap despite the TLB hit
    EXPECT_EQ(faults, 1);
}

// ---------------------------------------------------------------------
// Page-table walks per access.
// ---------------------------------------------------------------------

/** The pipeline's contract (satellite of the double-lookup fix): at
 *  most one page-table walk per access, and zero on a TLB hit. */
TEST_F(AccessPipelineTest, AtMostOneWalkPerAccessAndZeroOnTlbHit)
{
    map(VirtAddr(0x4000), 2, Protection::readWrite());

    // First touch: TLB miss -> exactly one refill walk.
    std::uint64_t walks = machine.pageTable().walkCount();
    (void)cpu.load(VirtAddr(0x4000));
    EXPECT_EQ(machine.pageTable().walkCount() - walks, 1u);

    // Subsequent touches of the page: TLB hits -> zero walks, for
    // loads, stores and repeated accesses alike.
    walks = machine.pageTable().walkCount();
    for (int i = 0; i < 16; ++i) {
        cpu.store(VirtAddr(0x4000 + 4 * i), i);
        (void)cpu.load(VirtAddr(0x4000 + 4 * i));
    }
    EXPECT_EQ(machine.pageTable().walkCount() - walks, 0u);

    // A faulting access walks at most once per retry attempt.
    walks = machine.pageTable().walkCount();
    cpu.setFaultHandler([&](const Fault &f) {
        map(f.address.va, 3, Protection::readWrite());
        return true;
    });
    (void)cpu.load(VirtAddr(0x9000));
    // Attempt 1 misses on the unmapped page (1 walk, no refill);
    // attempt 2 misses and refills (1 walk).
    EXPECT_LE(machine.pageTable().walkCount() - walks, 2u);
}

// ---------------------------------------------------------------------
// Observer flag + sampling.
// ---------------------------------------------------------------------

struct CountingObserver : MemoryObserver
{
    int loads = 0, stores = 0, ifetches = 0;
    void cpuLoad(PhysAddr, std::uint32_t) override { ++loads; }
    void cpuStore(PhysAddr, std::uint32_t) override { ++stores; }
    void cpuIFetch(PhysAddr, std::uint32_t) override { ++ifetches; }
};

TEST_F(AccessPipelineTest, ObserverSamplingReportsEveryNthAccess)
{
    map(VirtAddr(0x4000), 2, Protection::all());
    CountingObserver obs;
    machine.setObserver(&obs);

    // Default period 1: every access reported.
    cpu.loadRange(VirtAddr(0x4000), 8, 4);
    EXPECT_EQ(obs.loads, 8);

    // Period 4: every 4th access reported, across access kinds.
    machine.setObserverSampling(4);
    obs = CountingObserver{};
    cpu.loadRange(VirtAddr(0x4000), 8, 4);
    EXPECT_EQ(obs.loads, 2);
    cpu.storeRange(VirtAddr(0x4000), 8, 4, 1, 1);
    EXPECT_EQ(obs.stores, 2);
    cpu.ifetchRange(VirtAddr(0x4000), 8, 4);
    EXPECT_EQ(obs.ifetches, 2);

    // Period 0 is clamped to 1 (sampling off).
    machine.setObserverSampling(0);
    obs = CountingObserver{};
    cpu.loadRange(VirtAddr(0x4000), 3, 4);
    EXPECT_EQ(obs.loads, 3);
}

// ---------------------------------------------------------------------
// Batched-vs-single access identity.
// ---------------------------------------------------------------------

/** The batched API must be indistinguishable from a loop of single
 *  accesses: same values, same cycle count, same stats snapshot, same
 *  fault count — on fresh machines driven identically. */
TEST(AccessPipelineBatch, BatchedMatchesSingleAccessExactly)
{
    const MachineParams params = MachineParams::hp720();
    const VirtAddr base(0x40000);
    const std::uint32_t n = 64;

    auto setup = [&](Machine &m, Cpu &c) {
        c.setSpace(1);
        m.pageTable().enter(SpaceVa(1, base), 4, Protection::all());
        m.pageTable().enter(
            SpaceVa(1, base.plus(params.pageBytes)), 5,
            Protection::all());
    };

    Machine single(params);
    Cpu single_cpu(single);
    setup(single, single_cpu);
    std::vector<std::uint32_t> single_values;
    for (std::uint32_t i = 0; i < n; ++i)
        single_cpu.store(base.plus(4 * i), 1000 + 3 * i);
    for (std::uint32_t i = 0; i < n; ++i)
        single_values.push_back(single_cpu.load(base.plus(4 * i)));
    for (std::uint32_t i = 0; i < 8; ++i)
        single_values.push_back(
            single_cpu.ifetch(base.plus(params.pageBytes + 32 * i)));
    // Mixed op batch equivalent, issued singly: store + load + load.
    single_cpu.store(base, 42);
    (void)single_cpu.load(base);
    single_values.push_back(single_cpu.load(base));

    Machine batched(params);
    Cpu batched_cpu(batched);
    setup(batched, batched_cpu);
    std::vector<std::uint32_t> batched_values;
    batched_cpu.storeRange(base, n, 4, 1000, 3);
    for (std::uint32_t i = 0; i < n; ++i)
        batched_values.push_back(batched_cpu.load(base.plus(4 * i)));
    for (std::uint32_t i = 0; i < 8; ++i)
        batched_values.push_back(
            batched_cpu.ifetch(base.plus(params.pageBytes + 32 * i)));
    const Cpu::Op ops[] = {
        {AccessType::Store, base, 42},
        {AccessType::Load, base, 0},
    };
    batched_cpu.run(ops, 2);
    batched_values.push_back(batched_cpu.load(base));

    EXPECT_EQ(single_values, batched_values);
    EXPECT_EQ(single.clock().now(), batched.clock().now());
    EXPECT_EQ(single_cpu.faultCount(), batched_cpu.faultCount());
    EXPECT_EQ(single.stats().snapshot(), batched.stats().snapshot());
}

// ---------------------------------------------------------------------
// Line runs: seeded twin machines, per-word loops vs ranged calls.
// ---------------------------------------------------------------------

/** One machine configuration of the twin test. */
struct TwinCase
{
    std::string name;
    MachineParams params;
    bool peerShares = false;        ///< CPU 1 keeps Shared copies
    std::uint32_t samplePeriod = 1; ///< observer sampling period
    bool logCalls = false;          ///< observe through a per-word log
};

void
PrintTo(const TwinCase &tc, std::ostream *os)
{
    *os << tc.name;
}

/** Forwards every per-word transfer to the oracle and logs it. The
 *  run hooks keep their defaults, so the log is the per-word call
 *  sequence whichever way the accesses were issued. */
struct CallLog : MemoryObserver
{
    explicit CallLog(ConsistencyOracle &golden) : oracle(golden) {}

    ConsistencyOracle &oracle;
    std::vector<std::tuple<char, PhysAddr, std::uint32_t>> calls;

    void
    cpuLoad(PhysAddr pa, std::uint32_t v) override
    {
        calls.emplace_back('L', pa, v);
        oracle.cpuLoad(pa, v);
    }
    void
    cpuIFetch(PhysAddr pa, std::uint32_t v) override
    {
        calls.emplace_back('I', pa, v);
        oracle.cpuIFetch(pa, v);
    }
    void
    cpuStore(PhysAddr pa, std::uint32_t v) override
    {
        calls.emplace_back('S', pa, v);
        oracle.cpuStore(pa, v);
    }
};

/** Virtual pages of the twin layout, in space 1. Group A is six
 *  consecutive pages; page A3 starts unmapped and A4 read-only, so
 *  ranges fault in their middle. Group B shares A0..A2's d-cache
 *  colours on frames of its own (copies between them thrash one
 *  direct-mapped set). Group C aliases A0's frame at another colour. */
constexpr std::uint64_t groupBase[] = {0x100000, 0x110000, 0x121000};
constexpr std::uint32_t groupPages[] = {6, 3, 1};
constexpr VirtAddr pageA3(0x103000);
constexpr VirtAddr pageA4(0x104000);

struct Twin
{
    explicit Twin(const TwinCase &tc)
        : m(tc.params), cpu(m, 0), oracle(m.memory().sizeBytes()),
          log(oracle)
    {
        const std::uint32_t page = m.pageBytes();
        frames[VirtAddr(groupBase[2])] = 10; // C0 aliases A0
        for (std::uint32_t g = 0; g < 2; ++g) {
            for (std::uint32_t k = 0; k < groupPages[g]; ++k)
                frames[VirtAddr(groupBase[g] + k * page)] = 10 + 10 * g + k;
        }
        for (const auto &[va, frame] : frames) {
            if (va != pageA3) {
                m.pageTable().enter(SpaceVa(1, va), frame,
                                    va == pageA4 ? Protection::readOnly()
                                                 : Protection::readWrite());
            }
        }
        m.setObserver(tc.logCalls ? static_cast<MemoryObserver *>(&log)
                                  : &oracle);
        m.setObserverSampling(tc.samplePeriod);
        auto repair = [this](const Fault &f) {
            const SpaceVa page_key(1,
                                   f.address.va.alignDown(m.pageBytes()));
            if (f.type == FaultType::Unmapped)
                m.pageTable().enter(page_key, frames.at(page_key.va),
                                    Protection::readWrite());
            else
                m.pageTable().setProtection(page_key,
                                            Protection::readWrite());
            return true;
        };
        cpu.setSpace(1);
        cpu.setFaultHandler(repair);
        if (m.numCpus() > 1) {
            peer.emplace(m, 1);
            peer->setSpace(1);
            peer->setFaultHandler(repair);
        }
    }

    /** Unmap A3 and write-protect A4 again, so later ranges fault,
     *  and clear every referenced and modified bit, as pageout does. */
    void
    rearmTraps()
    {
        for (const auto &entry : frames) {
            PageTableEntry *pte =
                m.pageTable().lookupMutable(SpaceVa(1, entry.first));
            if (pte != nullptr) {
                pte->referenced = false;
                pte->modified = false;
            }
        }
        const SpaceVa a3(1, pageA3);
        if (m.pageTable().lookupMutable(a3) != nullptr) {
            for (std::uint32_t c = 0; c < m.numCpus(); ++c)
                m.tlb(c).invalidatePage(a3);
            m.pageTable().remove(a3);
        }
        m.pageTable().setProtection(SpaceVa(1, pageA4),
                                    Protection::readOnly());
    }

    Machine m;
    Cpu cpu;
    std::optional<Cpu> peer;
    ConsistencyOracle oracle;
    CallLog log;
    std::map<VirtAddr, FrameId> frames; ///< page va -> frame
};

/** One operation of the twin stream. */
struct TwinOp
{
    enum Kind { Load, Store, Copy, Single, Rearm } kind;
    VirtAddr dst;            ///< range base (copy destination)
    VirtAddr src;            ///< copy source
    std::uint32_t count = 0; ///< words
    std::uint32_t seed = 0;
    std::uint32_t step = 0;
};

/** Ops of the directed prologue at the head of every twin stream. */
constexpr std::size_t twinPrologueOps = 6;

/** A word-aligned address in a random page of a random group, at page
 *  offset @p offset if given; @p room receives the words left to the
 *  group's end. */
VirtAddr
pickAddr(Random &rng, std::uint32_t page_bytes, std::uint32_t &room,
         std::optional<std::uint64_t> offset = std::nullopt)
{
    const std::uint32_t g = static_cast<std::uint32_t>(rng.below(3));
    const std::uint64_t page = rng.below(groupPages[g]);
    const std::uint64_t off =
        offset ? *offset : rng.below(page_bytes / 4) * 4;
    room = static_cast<std::uint32_t>(
        ((groupPages[g] - page) * page_bytes - off) / 4);
    return VirtAddr(groupBase[g] + page * page_bytes + off);
}

std::vector<TwinOp>
twinStream(std::uint64_t seed, std::uint32_t page_bytes, std::size_t n)
{
    Random rng(seed);
    const std::uint32_t words = page_bytes / 4;
    const VirtAddr a0(groupBase[0]), a2(groupBase[0] + 2 * page_bytes);
    const VirtAddr b0(groupBase[1]), c0(groupBase[2]);
    // A directed prologue first. A page whose lines are all present
    // takes only runs (its PTE bits are set by runs alone; under
    // physical indexing C0 hits A0's lines). Then B0 is dirtied and
    // A0's frame loaded through C0, so a same-colour copy A0 -> B0
    // meets a set holding its destination Modified at every line,
    // with a synonym of its source present elsewhere.
    std::vector<TwinOp> ops = {
        {TwinOp::Load, a2, {}, words, 0, 0},
        {TwinOp::Store, a2, {}, words, 7, 1},
        {TwinOp::Load, a0, {}, words, 0, 0},
        {TwinOp::Load, c0, {}, words, 0, 0},
        {TwinOp::Store, b0, {}, words, 9, 2},
        {TwinOp::Copy, b0, a0, words, 0, 0},
    };
    static_assert(twinPrologueOps == 6);
    // Counts reach past two pages, so runs cross line and page
    // boundaries from unaligned starts.
    const std::uint32_t max_count = 2 * page_bytes / 4 + 40;
    for (std::size_t i = 0; i < n; ++i) {
        TwinOp op{};
        const std::uint64_t roll = rng.below(20);
        op.kind = roll < 5    ? TwinOp::Load
                  : roll < 10 ? TwinOp::Store
                  : roll < 16 ? TwinOp::Copy
                  : roll < 19 ? TwinOp::Single
                              : TwinOp::Rearm;
        std::uint32_t room = 0;
        op.dst = pickAddr(rng, page_bytes, room);
        if (op.kind == TwinOp::Copy) {
            // Half the copies keep the page offset: between A and B
            // that is the same colour, so the two lines share a set.
            std::uint32_t src_room = 0;
            op.src = pickAddr(rng, page_bytes, src_room,
                              rng.chance(1, 2)
                                  ? std::optional<std::uint64_t>(
                                        op.dst.offsetIn(page_bytes))
                                  : std::nullopt);
            room = std::min(room, src_room);
        }
        op.count = 1 + static_cast<std::uint32_t>(
                           rng.below(std::min(room, max_count)));
        op.seed = static_cast<std::uint32_t>(rng.next64());
        op.step = static_cast<std::uint32_t>(rng.below(3));
        ops.push_back(op);
    }
    // Epilogue: the last touch of pages A1 and B2 is one copy run
    // between two present lines, so the TLB order of its source and
    // destination reaches lruTail().
    const VirtAddr a1(groupBase[0] + page_bytes);
    const VirtAddr b2(groupBase[1] + 2 * page_bytes);
    ops.push_back({TwinOp::Load, a1, {}, 8, 0, 0});
    ops.push_back({TwinOp::Load, b2, {}, 8, 0, 0});
    ops.push_back({TwinOp::Copy, b2, a1, 8, 0, 0});
    return ops;
}

/** Issue @p op on @p t: as per-word load()/store() loops, or as the
 *  ranged calls. Single ops are issued the same way on both. */
void
issue(Twin &t, const TwinOp &op, bool ranged)
{
    Cpu &c = t.cpu;
    switch (op.kind) {
      case TwinOp::Load:
        if (ranged) {
            c.loadRange(op.dst, op.count, 4);
        } else {
            for (std::uint32_t i = 0; i < op.count; ++i)
                (void)c.load(op.dst.plus(4 * i));
        }
        return;
      case TwinOp::Store:
        if (ranged) {
            c.storeRange(op.dst, op.count, 4, op.seed, op.step);
        } else {
            for (std::uint32_t i = 0; i < op.count; ++i)
                c.store(op.dst.plus(4 * i), op.seed + i * op.step);
        }
        return;
      case TwinOp::Copy:
        if (ranged) {
            c.copyRange(op.dst, op.src, op.count);
        } else {
            for (std::uint32_t i = 0; i < op.count; ++i)
                c.store(op.dst.plus(4 * i), c.load(op.src.plus(4 * i)));
        }
        return;
      case TwinOp::Single: {
          // A peer load leaves a Shared copy behind; otherwise one
          // store and one load on this CPU.
          Cpu &who = t.peer ? *t.peer : c;
          (void)who.load(op.dst);
          if (!t.peer)
              c.store(op.dst, op.seed);
          return;
      }
      case TwinOp::Rearm:
        t.rearmTraps();
        return;
    }
}

/** Every observable of the two machines agrees. */
void
expectSameState(Twin &a, Twin &b)
{
    EXPECT_EQ(a.m.clock().now(), b.m.clock().now());
    EXPECT_EQ(a.cpu.faultCount(), b.cpu.faultCount());
    EXPECT_EQ(a.m.stats().snapshot(), b.m.stats().snapshot());
    EXPECT_EQ(a.oracle.checkedCount(), b.oracle.checkedCount());
    EXPECT_EQ(a.oracle.violationCount(), b.oracle.violationCount());
    EXPECT_TRUE(a.log.calls == b.log.calls);

    const std::uint32_t page = a.m.pageBytes();
    for (const auto &entry : a.frames) {
        const SpaceVa key(1, entry.first);
        const PageTableEntry *pa = a.m.pageTable().lookupMutable(key);
        const PageTableEntry *pb = b.m.pageTable().lookupMutable(key);
        ASSERT_EQ(pa == nullptr, pb == nullptr);
        if (pa != nullptr) {
            EXPECT_EQ(pa->referenced, pb->referenced);
            EXPECT_EQ(pa->modified, pb->modified);
        }
    }
    for (std::uint32_t c = 0; c < a.m.numCpus(); ++c) {
        EXPECT_TRUE(b.m.dcache(c).copyCountsConsistent());
        for (const auto &[va, frame] : a.frames) {
            for (std::uint32_t off = 0; off < page; off += 4) {
                const VirtAddr v = va.plus(off);
                const PhysAddr p(frame * page + off);
                const Cache::Probe pa = a.m.dcache(c).probe(v, p);
                const Cache::Probe pb = b.m.dcache(c).probe(v, p);
                ASSERT_EQ(pa.present, pb.present) << v;
                ASSERT_EQ(pa.state, pb.state) << v;
                ASSERT_EQ(pa.word, pb.word) << v;
            }
        }
    }
    const std::uint64_t words = a.m.memory().sizeBytes() / 4;
    for (std::uint64_t w = 0; w < words; ++w) {
        ASSERT_EQ(a.m.memory().readWord(PhysAddr(w * 4)),
                  b.m.memory().readWord(PhysAddr(w * 4)))
            << "pa " << std::hex << w * 4;
    }
}

/**
 * Reveal the LRU state a run must leave. The d-cache part loads one
 * fresh line into every set, which evicts the set's least recently
 * used way (expectSameState then probes which twin lines survived).
 * The TLB part touches fresh pages one at a time until every twin
 * page has been evicted, least recent first, and logs after each
 * touch which twin pages are still resident. @return that log.
 */
std::vector<std::vector<bool>>
lruTail(Twin &t)
{
    const std::uint32_t page = t.m.pageBytes();
    const CacheGeometry &geo = t.m.dcache().geometry();
    const std::uint32_t colours =
        geo.numSets() * geo.lineBytes() / page;
    for (std::uint32_t c = 0; c < colours; ++c) {
        const VirtAddr va(0x900000 + std::uint64_t(c) * page);
        t.m.pageTable().enter(SpaceVa(1, va), 300 + c,
                              Protection::readWrite());
        for (std::uint32_t off = 0; off < page; off += geo.lineBytes())
            (void)t.cpu.load(va.plus(off));
    }
    std::vector<std::vector<bool>> log;
    for (std::uint32_t k = 0; k < t.m.params().tlbEntries; ++k) {
        const VirtAddr va(0x800000 + std::uint64_t(k) * page);
        t.m.pageTable().enter(SpaceVa(1, va), 100 + k,
                              Protection::readWrite());
        (void)t.cpu.load(va);
        std::vector<bool> resident;
        for (const auto &entry : t.frames) {
            resident.push_back(
                t.m.tlb().peek(SpaceVa(1, entry.first)).pte !=
                nullptr);
        }
        log.push_back(resident);
    }
    return log;
}

class LineRunTwin : public ::testing::TestWithParam<TwinCase>
{
};

TEST_P(LineRunTwin, RangedCallsMatchPerWordLoops)
{
    const TwinCase &tc = GetParam();
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Twin words(tc);
        Twin ranged(tc);
        if (tc.peerShares) {
            // The peer starts with a Shared copy of every other line
            // of group A, so CPU 0's fills there come up Shared.
            for (Twin *t : {&words, &ranged}) {
                for (std::uint64_t off = 0; off < 3 * tc.params.pageBytes;
                     off += 64)
                    (void)t->peer->load(VirtAddr(groupBase[0] + off));
            }
        }
        const std::vector<TwinOp> ops =
            twinStream(seed, tc.params.pageBytes, 250);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (i == twinPrologueOps)
                expectSameState(words, ranged);
            issue(words, ops[i], false);
            issue(ranged, ops[i], true);
        }
        expectSameState(words, ranged);
        EXPECT_TRUE(lruTail(words) == lruTail(ranged));
        expectSameState(words, ranged);
        EXPECT_GT(ranged.oracle.checkedCount(), 0u);
    }
}

std::vector<TwinCase>
twinCases()
{
    std::vector<TwinCase> cases;
    const MachineParams hp = MachineParams::hp720();
    cases.push_back({"hp720", hp});
    cases.push_back({"hp720_log", hp, false, 1, true});

    MachineParams p = hp;
    p.dcacheWays = 2;
    cases.push_back({"two_way", p});

    p = hp;
    p.dcacheIndexing = Indexing::Physical;
    cases.push_back({"physical", p});

    p = hp;
    p.dcachePolicy = WritePolicy::WriteThrough;
    cases.push_back({"write_through", p});

    p = hp;
    p.numCpus = 2;
    p.cpuCoherence = MachineParams::CpuCoherence::Mesi;
    cases.push_back({"mesi_shared", p, true});
    cases.push_back({"mesi_shared_log", p, true, 1, true});

    p = hp;
    p.synonymCoherence = true;
    cases.push_back({"self_snoop", p});

    cases.push_back({"sampled", hp, false, 4, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AccessPipelineBatch, LineRunTwin, ::testing::ValuesIn(twinCases()),
    [](const ::testing::TestParamInfo<TwinCase> &param_info) {
        return param_info.param.name;
    });

} // anonymous namespace
} // namespace vic
