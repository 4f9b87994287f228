#include "cache/mesi_spec.hh"

#include "common/logging.hh"

namespace vic
{

const char *
mesiLocalEventName(MesiLocalEvent e)
{
    switch (e) {
      case MesiLocalEvent::Read: return "read";
      case MesiLocalEvent::Write: return "write";
    }
    vic_panic("invalid MesiLocalEvent %d", static_cast<int>(e));
}

const char *
mesiSnoopEventName(MesiSnoopEvent e)
{
    switch (e) {
      case MesiSnoopEvent::BusRead: return "bus-read";
      case MesiSnoopEvent::BusInvalidate: return "bus-invalidate";
    }
    vic_panic("invalid MesiSnoopEvent %d", static_cast<int>(e));
}

const char *
mesiBusOpName(MesiBusOp op)
{
    switch (op) {
      case MesiBusOp::None: return "";
      case MesiBusOp::BusRead: return "busRead";
      case MesiBusOp::BusReadExclusive: return "busReadExclusive";
      case MesiBusOp::BusUpgrade: return "busUpgrade";
    }
    vic_panic("invalid MesiBusOp %d", static_cast<int>(op));
}

} // namespace vic
