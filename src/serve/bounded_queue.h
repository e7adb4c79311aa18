// Bounded MPMC queue -- the backpressure primitive of the solve
// service.  Admission uses try_push, which fails when the queue is
// full, so overload becomes an explicit response instead of unbounded
// memory growth.
//
// close() wakes all poppers; pop() then drains what remains and returns
// nullopt, which is the workers' shutdown signal.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace deltanc::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admission path: moves `item` in and returns true, or returns false
  /// when the queue is full or closed and leaves `item` untouched (the
  /// caller answers it with an overload / drain error).
  bool try_push(T& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed *and* drained;
  /// nullopt is the shutdown signal.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace deltanc::serve
