// The flushing/migration queue (paper §2.4): fixed-size FIFO whose
// producers block while it is full.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/runtime.h"

namespace papyrus::core {
namespace {

TEST(BoundedQueueTest, PushBlocksUntilSlotFrees) {
  BoundedQueue<int> q;
  for (int i = 0; i < static_cast<int>(kDefaultQueueDepth); ++i) q.Push(i);
  std::atomic<bool> last_pushed{false};
  std::thread producer([&] {
    q.Push(static_cast<int>(kDefaultQueueDepth));  // must block: queue full
    last_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(last_pushed.load());
  EXPECT_EQ(q.Pop(), 0);  // frees a slot
  producer.join();
  EXPECT_TRUE(last_pushed.load());
  for (int i = 1; i <= static_cast<int>(kDefaultQueueDepth); ++i) {
    EXPECT_EQ(q.Pop(), i);
  }
}

TEST(BoundedQueueTest, ProducerConsumerHandoff) {
  BoundedQueue<int> q;
  constexpr int kN = 10000;
  std::thread consumer([&] {
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(q.Pop(), i);
    }
  });
  for (int i = 0; i < kN; ++i) q.Push(i);
  consumer.join();
}

}  // namespace
}  // namespace papyrus::core
