#include "ingest/queue.hpp"

#include <algorithm>

namespace crowdweb::ingest {

IngestQueue::IngestQueue(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

std::size_t IngestQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

bool IngestQueue::try_push(const IngestEvent& event) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!closed_ && events_.size() < capacity_) {
      events_.push_back(event);
      publish_depth();
      notify_if_crossed(1);
      return true;
    }
  }
  count_rejected(1);
  return false;
}

std::size_t IngestQueue::push_batch(std::span<const IngestEvent> events) {
  std::size_t accepted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!closed_) {
      const std::size_t room = capacity_ - std::min(capacity_, events_.size());
      accepted = std::min(room, events.size());
      events_.insert(events_.end(), events.begin(), events.begin() + accepted);
      if (accepted > 0) {
        publish_depth();
        notify_if_crossed(accepted);
      }
    }
  }
  count_rejected(events.size() - accepted);
  return accepted;
}

std::size_t IngestQueue::drain(std::vector<IngestEvent>& out, std::size_t max_events,
                               std::chrono::milliseconds timeout, std::size_t wake_at) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Set under the lock before the predicate is checked, so a push that
  // crosses the new threshold either is seen here or signals the wait.
  wake_at_ = std::clamp<std::size_t>(wake_at, 1, capacity_);
  not_empty_.wait_for(lock, timeout,
                      [this] { return events_.size() >= wake_at_ || closed_ || woken_; });
  woken_ = false;
  const std::size_t count = std::min(max_events, events_.size());
  out.insert(out.end(), events_.begin(), events_.begin() + count);
  events_.erase(events_.begin(), events_.begin() + count);
  publish_depth();
  return count;
}

std::size_t IngestQueue::take_all(std::vector<IngestEvent>& out) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t count = events_.size();
  out.insert(out.end(), events_.begin(), events_.end());
  events_.clear();
  publish_depth();
  return count;
}

void IngestQueue::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
}

void IngestQueue::wake() {
  const std::lock_guard<std::mutex> lock(mutex_);
  woken_ = true;
  not_empty_.notify_all();
}

bool IngestQueue::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::uint64_t IngestQueue::rejected() const noexcept {
  return rejected_.load(std::memory_order_relaxed);
}

}  // namespace crowdweb::ingest
