// Fixture: trace-add must trip — writing straight into the trace buffer
// from outside src/obs/ — the event carries no trace/span ids and merges as an orphan.
#include "obs/trace.h"

namespace fixture {

void InstrumentedBadly() {
  if (auto* trace = papyrus::obs::CurrentTrace()) {
    trace->Add("flush", "store", 0, 10);
  }
}

}  // namespace fixture
