// Seeded violation: raw std mutex primitives in src/net must be flagged
// by no-raw-std-mutex, like src/core and src/cache (util::Mutex carries
// the thread-safety annotations).
#include <condition_variable>
#include <mutex>

namespace vicinity::net {

struct BadQueue {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
};

void bad_push(BadQueue& q) {
  std::unique_lock<std::mutex> lock(q.mu);
  ++q.pending;
  q.cv.notify_one();
}

}  // namespace vicinity::net
