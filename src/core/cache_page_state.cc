#include "core/cache_page_state.hh"

#include "common/logging.hh"

namespace vic
{

const char *
cachePageStateName(CachePageState s)
{
    switch (s) {
      case CachePageState::Empty: return "Empty";
      case CachePageState::Present: return "Present";
      case CachePageState::Dirty: return "Dirty";
      case CachePageState::Stale: return "Stale";
    }
    vic_panic("invalid CachePageState %d", static_cast<int>(s));
}

char
cachePageStateLetter(CachePageState s)
{
    switch (s) {
      case CachePageState::Empty: return 'E';
      case CachePageState::Present: return 'P';
      case CachePageState::Dirty: return 'D';
      case CachePageState::Stale: return 'S';
    }
    vic_panic("invalid CachePageState %d", static_cast<int>(s));
}

const char *
requiredOpName(RequiredOp op)
{
    switch (op) {
      case RequiredOp::None: return "";
      case RequiredOp::Purge: return "purge";
      case RequiredOp::Flush: return "flush";
    }
    vic_panic("invalid RequiredOp %d", static_cast<int>(op));
}

} // namespace vic
