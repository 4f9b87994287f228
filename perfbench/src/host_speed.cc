#include "host_speed.hh"

#include "trace.hh"

namespace perfbench
{

double
HostSpeedReference::chunk()
{
    const std::uint64_t mask = buf.size() - 1;
    std::uint64_t x = state;
    const auto t0 = Clock::now();
    for (std::uint32_t k = 0; k < kChunkUpdates; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        buf[(x >> 40) & mask] += std::uint32_t(x);
    }
    const double seconds = secondsBetween(t0, Clock::now());
    state = x;
    return seconds;
}

double
HostSpeedPool::chunk()
{
    std::size_t slot = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        slot = slots.try_emplace(std::this_thread::get_id(), slots.size())
                   .first->second;
    }
    return refs.at(slot).chunk();
}

} // namespace perfbench
