// Fixture: fanning out through the primitive stays quiet, as do reading
// the core count, sleeping on the current thread, and mentions of
// std::thread or std::async inside comments and string literals.
#include <chrono>
#include <string>
#include <thread>

struct Status {};
Status TryParallelFor(unsigned workers, unsigned n);

unsigned FanOutTheRightWay() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::string note = "never start a std::thread here";
  TryParallelFor(cores, 100);
  return cores + (note.empty() ? 0u : 1u);
}
