// Known-good fixture: the fault layer itself is the sanctioned caller of
// the impairment mutators (rule fault-hooks does not fire under src/fault/).
#include "src/net/atm.h"

namespace pandora {

void ApplyEpisode(AtmNetwork& net, AtmPort* port) {
  net.SetPortUp(port, false);
  net.SetCircuitQuality(port, 7, HopQuality{});
  net.SetCircuitUp(port, 7, false);
  net.RestartPort(port);
}

}  // namespace pandora
