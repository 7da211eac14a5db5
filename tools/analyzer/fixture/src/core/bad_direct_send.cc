// Fixture: direct-send must trip — a raw Communicator Send from the KV
// core — remote requests belong on the async
// pipeline (batching, retries, flight-recorder events), not on a raw Send.
#include "net/comm.h"

namespace fixture {

void BypassesPipeline(papyrus::net::Communicator& req_comm, int dst) {
  req_comm.Send(dst, /*tag=*/2, papyrus::Slice("k", 1));
}

}  // namespace fixture
