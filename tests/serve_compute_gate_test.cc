// ComputeGate: the daemon's reader/writer gate must prefer writers. With a
// reader-preferring lock (std::shared_mutex on glibc), a steady stream of
// overlapping queries keeps the shared side held forever and a mutation
// batch waits behind it without bound; no end-to-end latency figure shows
// that, so this test does.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "serve/compute_gate.h"

namespace tj::serve {
namespace {

TEST(ComputeGateTest, WaitingWriterBlocksNewReaders) {
  ComputeGate gate;
  gate.lock_shared();  // the in-flight query

  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    std::lock_guard<ComputeGate> exclusive(gate);
    writer_in.store(true);
  });

  // Nothing reports that the writer has started to wait, so probe from a
  // third thread until a new reader is refused. A reader-preferring gate
  // admits it every time and the probe runs out of time.
  bool refused = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!refused && std::chrono::steady_clock::now() < deadline) {
    std::thread reader([&] {
      if (gate.try_lock_shared()) {
        gate.unlock_shared();
      } else {
        refused = true;
      }
    });
    reader.join();
    if (!refused) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(refused) << "a new reader overtook a waiting writer";
  EXPECT_FALSE(writer_in.load()) << "the writer entered beside a reader";

  gate.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_in.load());

  // With the writer gone, readers share the gate again.
  std::shared_lock<ComputeGate> first(gate);
  std::thread second([&] {
    ASSERT_TRUE(gate.try_lock_shared());
    gate.unlock_shared();
  });
  second.join();
}

}  // namespace
}  // namespace tj::serve
