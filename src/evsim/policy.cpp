#include "evsim/policy.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <vector>

namespace deltanc::evsim {

namespace {

/// The Definition-1 queue: one heap ordered by (level, highest first;
/// tag, earliest first; seq).  SCFQ and SCED derive from it and replace
/// only the tag stamp.
class DeltaKeyPolicy : public Policy {
 public:
  DeltaKeyPolicy(std::vector<int> level, std::vector<double> offset)
      : level_(std::move(level)), offset_(std::move(offset)) {
    if (level_.empty() || level_.size() != offset_.size()) {
      throw std::invalid_argument(
          "delta key policy: need one level and one offset per flow");
    }
    for (double o : offset_) {
      if (std::isnan(o)) {
        throw std::invalid_argument(
            "delta key policy: offsets must not be NaN");
      }
    }
  }
  void enqueue(Packet packet) override {
    packet.tag = packet.node_arrival + offset_[class_of(packet)];
    push(packet);
  }
  std::optional<Packet> dequeue() override {
    if (heap_.empty()) return std::nullopt;
    std::pop_heap(heap_.begin(), heap_.end(), later());
    Packet p = heap_.back();
    heap_.pop_back();
    backlog_ -= p.size_kb;
    return p;
  }
  [[nodiscard]] bool empty() const override { return heap_.empty(); }
  [[nodiscard]] double backlog_kb() const override { return backlog_; }

 protected:
  /// The packet's class index.  @throws std::out_of_range when unknown.
  [[nodiscard]] std::size_t class_of(const Packet& packet) const {
    if (packet.flow < 0 || packet.flow >= static_cast<int>(level_.size())) {
      throw std::out_of_range("delta key policy: unknown flow");
    }
    return static_cast<std::size_t>(packet.flow);
  }

  /// Admits a packet whose tag is already stamped.
  void push(const Packet& packet) {
    backlog_ += packet.size_kb;
    heap_.push_back(packet);
    std::push_heap(heap_.begin(), heap_.end(), later());
  }

 private:
  /// Heap order: true when `a` is served after `b`.
  struct Later {
    const std::vector<int>* level;
    bool operator()(const Packet& a, const Packet& b) const noexcept {
      const int la = (*level)[static_cast<std::size_t>(a.flow)];
      const int lb = (*level)[static_cast<std::size_t>(b.flow)];
      if (la != lb) return la < lb;
      if (a.tag != b.tag) return a.tag > b.tag;
      return a.seq > b.seq;
    }
  };
  [[nodiscard]] Later later() const noexcept { return Later{&level_}; }

  std::vector<int> level_;
  std::vector<double> offset_;
  std::vector<Packet> heap_;
  double backlog_ = 0.0;
};

/// SCFQ: virtual time = the finish tag of the most recently dequeued
/// packet; a packet of flow i gets tag max(F_i, v) + L / w_i.
class ScfqPolicy final : public DeltaKeyPolicy {
 public:
  explicit ScfqPolicy(std::vector<double> weights)
      : DeltaKeyPolicy(std::vector<int>(weights.size(), 0),
                       std::vector<double>(weights.size(), 0.0)),
        weights_(std::move(weights)),
        finish_(weights_.size(), 0.0) {
    for (double w : weights_) {
      if (!(w > 0.0)) {
        throw std::invalid_argument("scfq policy: weights must be > 0");
      }
    }
  }
  void enqueue(Packet packet) override {
    const std::size_t f = class_of(packet);
    finish_[f] = std::max(finish_[f], virtual_time_) +
                 packet.size_kb / weights_[f];
    packet.tag = finish_[f];
    push(packet);
  }
  std::optional<Packet> dequeue() override {
    std::optional<Packet> p = DeltaKeyPolicy::dequeue();
    if (p) virtual_time_ = p->tag;
    return p;
  }

 private:
  std::vector<double> weights_;
  std::vector<double> finish_;
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

  void enqueue(Packet packet) override {
    if (packet.flow < 0 ||
        packet.flow >= static_cast<int>(queues_.size())) {
      throw std::out_of_range("drr policy: unknown flow");
    }
    backlog_ += packet.size_kb;
    queues_[static_cast<std::size_t>(packet.flow)].push_back(packet);
  }

  std::optional<Packet> dequeue() override {
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
        Packet p = queue.front();
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
  std::vector<std::deque<Packet>> queues_;
  std::vector<double> deficit_;
  std::vector<bool> charged_;
  std::size_t cursor_ = 0;
  double backlog_ = 0.0;
};

/// SCED: per-class virtual server of rate rate_[f]; a packet of flow f
/// gets tag max(F_f, arrival) + L / rate_f and the earliest tag wins.
class ScedPolicy final : public DeltaKeyPolicy {
 public:
  explicit ScedPolicy(std::vector<double> rates)
      : DeltaKeyPolicy(std::vector<int>(rates.size(), 0),
                       std::vector<double>(rates.size(), 0.0)),
        rates_(std::move(rates)),
        finish_(rates_.size(), 0.0) {
    for (double r : rates_) {
      if (!(r >= 0.0)) {
        throw std::invalid_argument("sced policy: rates must be >= 0");
      }
    }
  }

  void enqueue(Packet packet) override {
    const std::size_t f = class_of(packet);
    if (!(rates_[f] > 0.0)) {
      throw std::invalid_argument(
          "sced policy: arrival on a class with no guaranteed rate");
    }
    finish_[f] = std::max(finish_[f], packet.node_arrival) +
                 packet.size_kb / rates_[f];
    packet.tag = finish_[f];
    push(packet);
  }

 private:
  std::vector<double> rates_;
  std::vector<double> finish_;
};

}  // namespace

std::unique_ptr<Policy> make_delta_key_policy(std::vector<int> level,
                                              std::vector<double> offset) {
  return std::make_unique<DeltaKeyPolicy>(std::move(level),
                                          std::move(offset));
}

std::unique_ptr<Policy> make_scfq_policy(std::vector<double> weights) {
  return std::make_unique<ScfqPolicy>(std::move(weights));
}

std::unique_ptr<Policy> make_drr_policy(std::vector<double> quanta) {
  return std::make_unique<DrrPolicy>(std::move(quanta));
}

std::unique_ptr<Policy> make_sced_policy(std::vector<double> rates) {
  return std::make_unique<ScedPolicy>(std::move(rates));
}

}  // namespace deltanc::evsim
