#include "evsim/policy.h"

#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

namespace deltanc::evsim {

namespace {

/// A sim::KeyQueue popped whole.  A self-clocked queue (SCFQ) stamps
/// from the virtual time, the key of the packet sent last; every other
/// one stamps from the packet's arrival.
class KeyPolicy final : public Policy {
 public:
  KeyPolicy(sim::KeyQueue queue, bool self_clocked)
      : queue_(std::move(queue)), self_clocked_(self_clocked) {}

  void enqueue(sim::Chunk packet) override {
    queue_.push(packet, self_clocked_ ? virtual_time_ : packet.arrival);
  }
  std::optional<sim::Chunk> dequeue() override {
    if (queue_.empty()) return std::nullopt;
    const sim::Chunk p = queue_.pop();
    if (self_clocked_) virtual_time_ = p.key;
    return p;
  }
  [[nodiscard]] bool empty() const override { return queue_.empty(); }
  [[nodiscard]] double backlog_kb() const override { return queue_.backlog(); }

 private:
  sim::KeyQueue queue_;
  bool self_clocked_;
  double virtual_time_ = 0.0;
};

/// Deficit round robin, packetized: the classic Shreedhar-Varghese
/// algorithm.  A grant is one whole packet; the deficit carries across
/// rounds while the class stays backlogged.
class DrrPolicy final : public Policy {
 public:
  explicit DrrPolicy(std::vector<double> quanta)
      : quanta_(std::move(quanta)),
        queues_(quanta_.size()),
        deficit_(quanta_.size(), 0.0),
        charged_(quanta_.size(), false) {
    if (quanta_.empty()) {
      throw std::invalid_argument("drr policy: need quanta");
    }
    for (double q : quanta_) {
      if (!(q > 0.0)) {
        throw std::invalid_argument("drr policy: quanta must be > 0");
      }
    }
  }

  void enqueue(sim::Chunk packet) override {
    if (packet.flow < 0 ||
        packet.flow >= static_cast<int>(queues_.size())) {
      throw std::out_of_range("drr policy: unknown flow");
    }
    backlog_ += packet.size_kb;
    queues_[static_cast<std::size_t>(packet.flow)].push_back(packet);
  }

  std::optional<sim::Chunk> dequeue() override {
    if (empty()) return std::nullopt;
    // Terminates: some class is backlogged, and every full lap of the
    // cursor grows each backlogged class's deficit by its quantum, so
    // eventually a head packet fits.
    for (;;) {
      auto& queue = queues_[cursor_];
      if (queue.empty()) {
        deficit_[cursor_] = 0.0;
        charged_[cursor_] = false;
        advance();
        continue;
      }
      if (!charged_[cursor_]) {
        deficit_[cursor_] += quanta_[cursor_];
        charged_[cursor_] = true;
      }
      if (queue.front().size_kb <= deficit_[cursor_]) {
        sim::Chunk p = queue.front();
        queue.pop_front();
        deficit_[cursor_] -= p.size_kb;
        backlog_ -= p.size_kb;
        if (queue.empty()) {
          deficit_[cursor_] = 0.0;  // forfeited on emptying
          charged_[cursor_] = false;
          advance();
        }
        return p;
      }
      charged_[cursor_] = false;  // head does not fit; visit over
      advance();
    }
  }

  [[nodiscard]] bool empty() const override {
    for (const auto& queue : queues_) {
      if (!queue.empty()) return false;
    }
    return true;
  }
  [[nodiscard]] double backlog_kb() const override { return backlog_; }

 private:
  void advance() noexcept { cursor_ = (cursor_ + 1) % queues_.size(); }

  std::vector<double> quanta_;
  std::vector<std::deque<sim::Chunk>> queues_;
  std::vector<double> deficit_;
  std::vector<bool> charged_;
  std::size_t cursor_ = 0;
  double backlog_ = 0.0;
};

}  // namespace

std::unique_ptr<Policy> make_delta_key_policy(std::vector<int> level,
                                              std::vector<double> offset) {
  return std::make_unique<KeyPolicy>(
      sim::KeyQueue(std::move(level), std::move(offset)), false);
}

std::unique_ptr<Policy> make_scfq_policy(std::vector<double> weights) {
  for (double w : weights) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("scfq policy: weights must be > 0");
    }
  }
  return std::make_unique<KeyPolicy>(
      sim::KeyQueue::finish_tags(std::move(weights)), true);
}

std::unique_ptr<Policy> make_drr_policy(std::vector<double> quanta) {
  return std::make_unique<DrrPolicy>(std::move(quanta));
}

std::unique_ptr<Policy> make_sced_policy(std::vector<double> rates) {
  return std::make_unique<KeyPolicy>(
      sim::KeyQueue::finish_tags(std::move(rates)), false);
}

}  // namespace deltanc::evsim
