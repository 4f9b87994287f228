#include "dma/dma_engine.hh"

#include <bit>
#include <exception>
#include <utility>

#include "common/logging.hh"

namespace vic
{

DmaEngine::DmaEngine(const DmaCosts &dma_costs, PhysicalMemory &memory,
                     CycleClock &clock, StatSet &stat_set)
    : costs(dma_costs), mem(memory), clk(clock),
      counters(stat_set.registerTable<kDmaCounters>())
{
}

void
DmaEngine::attachSnoopedCache(Cache *cache)
{
    vic_assert(cache != nullptr, "null snooped cache");
    snooped.push_back(cache);
}

void
DmaEngine::setBeatBytes(std::uint32_t bytes)
{
    vic_assert(bytes >= 4 && std::has_single_bit(bytes),
               "beat size %u not a power-of-two word multiple", bytes);
    beatSize = bytes;
}

DmaTicket::DmaTicket(DmaTicket &&other) noexcept
    : eng(std::exchange(other.eng, nullptr)), tid(other.tid)
{
}

DmaTicket &
DmaTicket::operator=(DmaTicket &&other) noexcept
{
    // The ticket overwritten here is dropped like any other.
    DmaTicket dropped(std::move(*this));
    eng = std::exchange(other.eng, nullptr);
    tid = other.tid;
    return *this;
}

DmaTicket::~DmaTicket()
{
    if (pending() && std::uncaught_exceptions() == 0)
        vic_panic("DMA transfer %llu dropped with beats pending",
                  (unsigned long long)tid);
}

bool
DmaTicket::pending() const
{
    return eng != nullptr && eng->indexOf(tid) < eng->queue.size();
}

bool
DmaTicket::step()
{
    if (eng == nullptr)
        return false;
    const std::size_t index = eng->indexOf(tid);
    if (index == eng->queue.size())
        return false;
    eng->executeBeat(index);
    return true;
}

void
DmaTicket::wait()
{
    while (step()) {
    }
}

DmaTicket
DmaEngine::start(bool device_writes, PhysAddr pa,
                 const std::uint32_t *words, std::uint32_t *out,
                 std::uint32_t nwords)
{
    vic_assert(pa.isAligned(4), "unaligned DMA transfer");

    // Per-transfer accounting happens at command time, exactly where
    // the historic atomic implementation charged it, so the
    // synchronous path's cycle totals and statistics are unchanged.
    if (device_writes)
        ++counters[DmaStat::DeviceWrites];
    else
        ++counters[DmaStat::DeviceReads];
    counters[DmaStat::WordsMoved] += nwords;
    clk.advance(costs.setup);
    if (evlog) {
        VIC_EVLOG(*evlog,
                  format("dma-%s pa=%s words=%u%s",
                         device_writes ? "wr" : "rd", hex(pa).c_str(),
                         nwords,
                         snooped.empty() ? "" : " (snooped)"));
    }

    const DmaTransferId id = nextId++;
    if (nwords == 0) {
        // Degenerate command: completes at setup time, nothing queued.
        return DmaTicket(this, id);
    }

    Transfer t;
    t.id = id;
    t.deviceWrites = device_writes;
    t.pa = pa;
    t.nwords = nwords;
    if (device_writes)
        t.buf.assign(words, words + nwords);
    else
        t.out = out;
    queue.push_back(std::move(t));
    return DmaTicket(this, id);
}

DmaTicket
DmaEngine::startWrite(PhysAddr pa, const std::uint32_t *words,
                      std::uint32_t nwords)
{
    return start(true, pa, words, nullptr, nwords);
}

DmaTicket
DmaEngine::startRead(PhysAddr pa, std::uint32_t *out,
                     std::uint32_t nwords)
{
    return start(false, pa, nullptr, out, nwords);
}

std::size_t
DmaEngine::indexOf(DmaTransferId id) const
{
    std::size_t i = 0;
    while (i < queue.size() && queue[i].id != id)
        ++i;
    return i;
}

std::uint32_t
DmaEngine::beatWords(const Transfer &t) const
{
    const PhysAddr next = t.pa.plus(std::uint64_t(t.done) * 4);
    const std::uint32_t to_boundary = static_cast<std::uint32_t>(
        (beatSize - next.offsetIn(beatSize)) / 4);
    const std::uint32_t remaining = t.nwords - t.done;
    return remaining < to_boundary ? remaining : to_boundary;
}

std::optional<DmaEngine::BeatInfo>
DmaEngine::nextBeat(std::size_t queue_index) const
{
    if (queue_index >= queue.size())
        return std::nullopt;
    const Transfer &t = queue[queue_index];
    BeatInfo b;
    b.id = t.id;
    b.pa = t.pa.plus(std::uint64_t(t.done) * 4);
    b.nwords = beatWords(t);
    b.deviceWrites = t.deviceWrites;
    return b;
}

void
DmaEngine::executeBeat(std::size_t index)
{
    Transfer &t = queue[index];
    const std::uint32_t words = beatWords(t);
    clk.advance(costs.perWord * words);

    if (snooped.empty()) {
        // The beat moves as one block and is reported as one run.
        const PhysAddr addr = t.pa.plus(std::uint64_t(t.done) * 4);
        if (t.deviceWrites) {
            const std::uint32_t *in = t.buf.data() + t.done;
            mem.writeWords(addr, in, words);
            if (observer)
                observer->dmaWriteRun(addr, in, words);
        } else {
            std::uint32_t *out = t.out + t.done;
            mem.readWords(addr, out, words);
            if (observer)
                observer->dmaReadRun(addr, out, words);
        }
    } else {
        // Snooped: per word, the snoop before the word moves.
        for (std::uint32_t i = 0; i < words; ++i) {
            const PhysAddr addr =
                t.pa.plus(std::uint64_t(t.done + i) * 4);
            if (t.deviceWrites) {
                // Coherent DMA: kill any cached copies so later CPU
                // reads miss and fetch the new data.
                for (Cache *c : snooped)
                    c->snoopInvalidateLine(addr);
                mem.writeWord(addr, t.buf[t.done + i]);
                if (observer)
                    observer->dmaWrite(addr, t.buf[t.done + i]);
            } else {
                // Coherent DMA: pull dirty data out of the caches
                // first.
                for (Cache *c : snooped)
                    c->snoopWriteBackLine(addr);
                t.out[t.done + i] = mem.readWord(addr);
                if (observer)
                    observer->dmaRead(addr, t.out[t.done + i]);
            }
        }
    }
    t.done += words;

    if (t.done == t.nwords)
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
}

void
DmaEngine::deviceWrite(PhysAddr pa, const std::uint32_t *words,
                       std::uint32_t nwords)
{
    startWrite(pa, words, nwords).wait();
}

void
DmaEngine::deviceRead(PhysAddr pa, std::uint32_t *out,
                      std::uint32_t nwords)
{
    startRead(pa, out, nwords).wait();
}

} // namespace vic
