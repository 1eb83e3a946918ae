#ifndef OPAQ_PARALLEL_CHANNEL_H_
#define OPAQ_PARALLEL_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace opaq {

/// One untyped message in flight between simulated processors.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<uint8_t> payload;
};

/// A processor's inbox. Messages are matched on (source, tag) like MPI's
/// point-to-point semantics; order is preserved per (source, tag) pair.
/// Thread-safe: senders push from their own threads, the owner blocks on
/// Receive.
class Mailbox {
 public:
  void Deliver(Message message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queues_[{message.source, message.tag}].push_back(std::move(message));
    }
    cv_.notify_all();
  }

  /// Blocks until a message from `source` with `tag` arrives.
  Message Receive(int source, int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto key = std::make_pair(source, tag);
    cv_.wait(lock, [&] {
      auto it = queues_.find(key);
      return it != queues_.end() && !it->second.empty();
    });
    auto it = queues_.find(key);
    Message out = std::move(it->second.front());
    it->second.pop_front();
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::pair<int, int>, std::deque<Message>> queues_;
};

}  // namespace opaq

#endif  // OPAQ_PARALLEL_CHANNEL_H_
