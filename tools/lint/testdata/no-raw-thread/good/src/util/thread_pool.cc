// Fixture: the fan-out primitive's own file is exempt — it is the one place
// that starts threads.
#include <thread>
#include <vector>

void RunWorkers(int workers) {
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back([] {});
  for (std::thread& t : threads) t.join();
}
