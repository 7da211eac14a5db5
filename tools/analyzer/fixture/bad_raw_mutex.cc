// Fixture: raw-mutex must trip — raw primitives outside the annotated
// papyrus::Mutex wrapper.
#include <mutex>

namespace fixture {

struct Counter {
  std::mutex mu;
  int n = 0;
  void Bump() {
    std::lock_guard<std::mutex> lock(mu);
    ++n;
  }
};

}  // namespace fixture
