// Fixture: must stay clean — a direct Communicator Send inside the
// direct-send scope (src/core/), silenced by its escape.
#include "net/comm.h"

namespace fixture {

void EscapedSend(papyrus::net::Communicator& resp_comm, int dst) {
  // A response to an already-pipelined request carries its own tag and
  // needs no batching or retry machinery.
  resp_comm.Send(dst, 100, papyrus::Slice("v", 1));  // analyze:allow-direct-send
}

}  // namespace fixture
