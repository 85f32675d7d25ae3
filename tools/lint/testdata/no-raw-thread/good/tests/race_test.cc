// Fixture: tests drive concurrency from the outside and may start threads.
#include <thread>

void HammerFromTwoThreads() {
  std::thread a([] {});
  std::thread b([] {});
  a.join();
  b.join();
}
