/**
 * @file
 * Tracing for the benchmark's traced run: in-memory spans recorded
 * around the benchmark's own calls into the simulator, and a sampled
 * timing decorator for the consistency oracle.
 *
 * Nothing here runs in a measured (untraced) pass: the untraced
 * harness passes a null recorder and attaches the oracle directly.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "common/observer.hh"
#include "metrics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: a root span
    std::uint32_t pass = 0;   ///< the pass (request) the span serves
    double start = 0;         ///< seconds since the recorder started
    double end = 0;
};

/** Spans kept in memory and written out once, at exit. Ids start at
 *  1; id 0 means "no span". Single-threaded. */
class SpanRecorder
{
  public:
    SpanRecorder() : origin(Clock::now()) {}

    std::uint32_t begin(const std::string &name, std::uint32_t parent,
                        std::uint32_t pass);
    void end(std::uint32_t id);

    /** Record a span whose bounds were measured elsewhere. */
    void add(const std::string &name, std::uint32_t parent,
             std::uint32_t pass, Clock::time_point start,
             Clock::time_point end);

    /** Summed duration of every span named @p name in @p pass. */
    double total(const std::string &name, std::uint32_t pass) const;

    vic::JsonValue toJson() const;

  private:
    Clock::time_point origin;
    std::vector<Span> all;

    double at(Clock::time_point t) const { return secondsBetween(origin, t); }
};

/** RAII span; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name,
               std::uint32_t parent, std::uint32_t pass)
        : recorder(rec),
          spanId(rec != nullptr ? rec->begin(name, parent, pass) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (recorder != nullptr)
            recorder->end(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return spanId; }

  private:
    SpanRecorder *recorder;
    std::uint32_t spanId;
};

/**
 * Forwarding MemoryObserver that times 1 in @c kPeriod calls, chosen by
 * call index, and forwards every call unchanged. Timing every call
 * would cost more than the oracle itself, so sampling is required; the
 * period is prime so it does not beat with the workloads' power-of-two
 * loop strides.
 *
 * An oracle call costs a few ns, no more than a clock read, so each
 * sample also times one empty clock read in the same context and the
 * estimate subtracts it: sample = (t2 - t1) - (t1 - t0) for reads
 * t0, t1 before the call and t2 after it.
 */
class SampledObserver final : public vic::MemoryObserver
{
  public:
    static constexpr std::uint32_t kPeriod = 61;

    explicit SampledObserver(vic::MemoryObserver &wrapped)
        : inner(wrapped)
    {
    }

    void cpuLoad(vic::PhysAddr pa, std::uint32_t v) override
    { forward(&vic::MemoryObserver::cpuLoad, pa, v); }
    void cpuIFetch(vic::PhysAddr pa, std::uint32_t v) override
    { forward(&vic::MemoryObserver::cpuIFetch, pa, v); }
    void cpuStore(vic::PhysAddr pa, std::uint32_t v) override
    { forward(&vic::MemoryObserver::cpuStore, pa, v); }
    void dmaWrite(vic::PhysAddr pa, std::uint32_t v) override
    { forward(&vic::MemoryObserver::dmaWrite, pa, v); }
    void dmaRead(vic::PhysAddr pa, std::uint32_t v) override
    { forward(&vic::MemoryObserver::dmaRead, pa, v); }

    std::uint64_t calls() const { return callCount; }
    std::uint64_t samples() const { return sampleCount; }

    /** Host seconds of every forwarded call, estimated from the
     *  samples (never negative). */
    double
    selfSeconds() const
    {
        return scaleSampled(std::max(0.0, sampled - clockCost), sampleCount,
                            callCount);
    }

  private:
    vic::MemoryObserver &inner;
    std::uint64_t callCount = 0;
    std::uint64_t sampleCount = 0;
    double sampled = 0;   ///< sum of t2 - t1
    double clockCost = 0; ///< sum of t1 - t0

    using Hook = void (vic::MemoryObserver::*)(vic::PhysAddr,
                                               std::uint32_t);
    void
    forward(Hook hook, vic::PhysAddr pa, std::uint32_t v)
    {
        if (callCount++ % kPeriod != 0) {
            (inner.*hook)(pa, v);
            return;
        }
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        (inner.*hook)(pa, v);
        const auto t2 = Clock::now();
        clockCost += secondsBetween(t0, t1);
        sampled += secondsBetween(t1, t2);
        ++sampleCount;
    }
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
