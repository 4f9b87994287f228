/**
 * @file
 * Host-speed reference.
 *
 * On a shared host, other tenants' load changes the speed of the
 * simulator by up to 2x for minutes at a time, so a whole run can land
 * in a slow phase. A fixed unit of work that does not depend on the
 * simulator is therefore timed next to every simulated run. The work is
 * a chunk of random read-modify-writes over a private 8 MiB buffer,
 * which lives in the last-level cache as the simulator's working set
 * does. Host times are reported in reference seconds. One reference
 * second is the time in which the host, at that moment, performs 10^8
 * of those updates.
 *
 * On the 4-vCPU shared host this benchmark was tuned on (10 runs of
 * 12-15 s per workload, in noisy periods), this cut the run-to-run
 * spread (IQR / median) of pass time from 0.15-0.35 to 0.08-0.23. An
 * L2-resident buffer, read-only loads, pointer chasing, binary search
 * and sorting, alone or mixed, did no better across all workloads. It
 * does not catch every slowdown: in one, smp-coherence slowed by 45%
 * while the chunk slowed by 5%.
 */

#ifndef PERFBENCH_HOST_SPEED_HH
#define PERFBENCH_HOST_SPEED_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench
{

class HostSpeedReference
{
  public:
    static constexpr std::size_t kBufferWords = std::size_t(2) << 20;
    static constexpr std::size_t kBufferBytes = kBufferWords * 4;
    static constexpr std::uint32_t kChunkUpdates = 100000;
    /** Reference seconds of one chunk: 10^5 updates at 10^8 per s. */
    static constexpr double kChunkReferenceSeconds = 1e-3;

    HostSpeedReference() : buf(kBufferWords, 1) {}

    /** Run one chunk; returns its host seconds. */
    double chunk();

  private:
    std::vector<std::uint32_t> buf;
    std::uint64_t state = 1;
};

/**
 * One reference per thread that runs chunks: the main thread, or
 * each engine worker of a sweep. A thread keeps its reference until
 * reset(), which a pass calls while no worker runs. Every buffer is
 * allocated and touched up front, so it is resident for the whole
 * process and its size can be taken off the peak resident set exactly.
 */
class HostSpeedPool
{
  public:
    explicit HostSpeedPool(unsigned threads) : refs(threads) {}

    /** Run one chunk on the calling thread's reference. */
    double chunk();

    /** Forget which thread holds which reference. */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(mu);
        slots.clear();
    }

    /** Bytes of every reference buffer. */
    std::size_t bytes() const
    { return refs.size() * HostSpeedReference::kBufferBytes; }

  private:
    std::vector<HostSpeedReference> refs;
    std::mutex mu; ///< guards slots
    std::map<std::thread::id, std::size_t> slots;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HH
