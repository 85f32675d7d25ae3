// Fixture: threads started outside util/thread_pool.cc must fire.
#include <future>
#include <pthread.h>
#include <thread>
#include <vector>

void* Work(void*) { return nullptr; }

int FanOutTheWrongWay() {
  std::vector<std::thread> workers;  // violation: std::thread
  workers.emplace_back([] {});
  std::jthread watcher([] {});  // violation: std::jthread
  auto answer = std::async([] { return 42; });  // violation: std::async
  pthread_t tid;
  pthread_create(&tid, nullptr, Work, nullptr);  // violation: pthread_create
  for (auto& w : workers) w.join();
  return answer.get();
}
