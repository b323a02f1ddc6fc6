// Known-bad fixture: a controller outside the fault layer poking circuit
// and port parameters directly.  Every such call must be scripted in a
// FaultPlan instead (rule fault-hooks).
#include "src/net/atm.h"

namespace pandora {

void MisbehavingController(AtmNetwork& net, AtmPort* port) {
  net.SetPortUp(port, false);                     // EXPECT-LINT: fault-hooks
  net.SetCircuitQuality(port, 7, HopQuality{});   // EXPECT-LINT: fault-hooks
  net.SetCircuitUp(port, 7, false);               // EXPECT-LINT: fault-hooks
  net.RestartPort(port);                          // EXPECT-LINT: fault-hooks
}

}  // namespace pandora
