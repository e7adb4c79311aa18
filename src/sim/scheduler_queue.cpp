#include "sim/scheduler_queue.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace deltanc::sim {

namespace {

constexpr double kSizeEps = 1e-12;

/// Drains up to `amount` kb from the head of `queue`, splitting the last
/// chunk if the amount runs out inside it; fully served chunks move to
/// `completed`.  Decrements `*backlog` step by step and returns the amount
/// drained.
double drain(std::deque<Chunk>& queue, double amount, double* backlog,
             std::vector<Chunk>* completed) {
  double drained = 0.0;
  while (amount > kSizeEps && !queue.empty()) {
    Chunk& head = queue.front();
    const double step = std::min(amount, head.size_kb);
    head.size_kb -= step;
    amount -= step;
    drained += step;
    *backlog -= step;
    if (head.size_kb <= kSizeEps) {
      completed->push_back(head);
      queue.pop_front();
    }
  }
  return drained;
}

/// The KeyQueue's heap order: true when `a` is served after `b`.
struct ServedAfter {
  const std::vector<int>& level;
  bool operator()(const Chunk& a, const Chunk& b) const noexcept {
    const int la = level[static_cast<std::size_t>(a.flow)];
    const int lb = level[static_cast<std::size_t>(b.flow)];
    if (la != lb) return la < lb;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};

/// Fluid GPS: progressive filling across backlogged classes per slot.
class GpsDiscipline final : public Discipline {
 public:
  explicit GpsDiscipline(std::vector<double> weights)
      : weights_(std::move(weights)), queues_(weights_.size()) {
    if (weights_.empty()) {
      throw std::invalid_argument("gps: need flow weights");
    }
    for (double w : weights_) {
      if (!(w > 0.0)) throw std::invalid_argument("gps: weights must be > 0");
    }
  }

  void enqueue(Chunk chunk) override {
    if (chunk.flow < 0 || chunk.flow >= static_cast<int>(queues_.size())) {
      throw std::out_of_range("gps: unknown flow class");
    }
    backlog_ += chunk.size_kb;
    queues_[chunk.flow].push_back(chunk);
  }

  double serve(double budget, std::vector<Chunk>* completed) override {
    double served = 0.0;
    // Progressive filling: split the remaining budget among backlogged
    // classes by weight; classes that drain early release their share.
    while (budget > kSizeEps) {
      double active_weight = 0.0;
      double active_backlog = 0.0;
      for (std::size_t f = 0; f < queues_.size(); ++f) {
        if (!queues_[f].empty()) {
          active_weight += weights_[f];
          active_backlog += class_backlog(f);
        }
      }
      if (active_weight == 0.0) break;
      // The filling step: the round ends when either the budget is spent
      // or the first class drains completely.
      double round = std::min(budget, active_backlog);
      for (std::size_t f = 0; f < queues_.size(); ++f) {
        if (queues_[f].empty()) continue;
        const double share = weights_[f] / active_weight;
        round = std::min(round, class_backlog(f) / share);
      }
      if (round <= kSizeEps) round = budget;  // numerical guard
      double spent = 0.0;
      for (std::size_t f = 0; f < queues_.size(); ++f) {
        if (queues_[f].empty()) continue;
        const double share = weights_[f] / active_weight;
        spent += drain(queues_[f], round * share, &backlog_, completed);
      }
      if (spent <= kSizeEps) break;
      budget -= spent;
      served += spent;
    }
    return served;
  }

  [[nodiscard]] double backlog() const override { return backlog_; }

 private:
  [[nodiscard]] double class_backlog(std::size_t f) const {
    double sum = 0.0;
    for (const Chunk& c : queues_[f]) sum += c.size_kb;
    return sum;
  }

  std::vector<double> weights_;
  std::vector<std::deque<Chunk>> queues_;
  double backlog_ = 0.0;
};

/// Deficit round robin: per-class deques, persistent deficit counters,
/// and a round-robin cursor.  The charged_ flag makes the quantum a
/// once-per-visit grant even when a visit spans several serve() calls.
class DrrDiscipline final : public Discipline {
 public:
  explicit DrrDiscipline(std::vector<double> quanta)
      : quanta_(std::move(quanta)),
        queues_(quanta_.size()),
        deficit_(quanta_.size(), 0.0),
        charged_(quanta_.size(), false) {
    if (quanta_.empty()) {
      throw std::invalid_argument("drr: need flow quanta");
    }
    for (double q : quanta_) {
      if (!(q > 0.0)) throw std::invalid_argument("drr: quanta must be > 0");
    }
  }

  void enqueue(Chunk chunk) override {
    if (chunk.flow < 0 || chunk.flow >= static_cast<int>(queues_.size())) {
      throw std::out_of_range("drr: unknown flow class");
    }
    backlog_ += chunk.size_kb;
    queues_[static_cast<std::size_t>(chunk.flow)].push_back(chunk);
  }

  double serve(double budget, std::vector<Chunk>* completed) override {
    double served = 0.0;
    // Guards against sub-epsilon quanta that could never drain anything:
    // a full cursor lap with no service ends the slot.
    std::size_t idle_visits = 0;
    while (budget > kSizeEps && backlog_ > kSizeEps &&
           idle_visits <= queues_.size()) {
      auto& queue = queues_[cursor_];
      if (queue.empty()) {
        // An empty class holds no deficit and no pending charge.
        deficit_[cursor_] = 0.0;
        charged_[cursor_] = false;
        advance();
        ++idle_visits;
        continue;
      }
      if (!charged_[cursor_]) {
        deficit_[cursor_] += quanta_[cursor_];
        charged_[cursor_] = true;
      }
      const double drained = drain(queue, std::min(budget, deficit_[cursor_]),
                                   &backlog_, completed);
      deficit_[cursor_] -= drained;
      budget -= drained;
      served += drained;
      idle_visits = drained > kSizeEps ? 0 : idle_visits + 1;
      if (queue.empty()) {
        deficit_[cursor_] = 0.0;  // deficit does not survive an empty queue
        charged_[cursor_] = false;
        advance();
      } else if (budget <= kSizeEps) {
        break;  // mid-visit budget exhaustion: resume here, still charged
      } else {
        charged_[cursor_] = false;  // deficit spent; the visit is over
        advance();
      }
    }
    return served;
  }

  [[nodiscard]] double backlog() const override { return backlog_; }

 private:
  void advance() noexcept { cursor_ = (cursor_ + 1) % queues_.size(); }

  std::vector<double> quanta_;
  std::vector<std::deque<Chunk>> queues_;
  std::vector<double> deficit_;
  std::vector<bool> charged_;
  std::size_t cursor_ = 0;
  double backlog_ = 0.0;
};

}  // namespace

KeyQueue::KeyQueue(std::vector<int> level, std::vector<double> offset)
    : level_(std::move(level)), offset_(std::move(offset)) {
  if (level_.empty() || level_.size() != offset_.size()) {
    throw std::invalid_argument(
        "key queue: need one level and one offset per flow class");
  }
  for (double o : offset_) {
    if (std::isnan(o)) {
      throw std::invalid_argument("key queue: offsets must not be NaN");
    }
  }
}

KeyQueue KeyQueue::finish_tags(std::vector<double> rates) {
  KeyQueue queue(std::vector<int>(rates.size(), 0),
                 std::vector<double>(rates.size(), 0.0));
  for (double r : rates) {
    if (!(r >= 0.0)) {
      throw std::invalid_argument("key queue: rates must be >= 0");
    }
  }
  queue.finish_.assign(rates.size(), 0.0);
  queue.rate_ = std::move(rates);
  return queue;
}

void KeyQueue::push(Chunk chunk, double start) {
  if (chunk.flow < 0 || chunk.flow >= static_cast<int>(level_.size())) {
    throw std::out_of_range("key queue: unknown flow class");
  }
  const auto f = static_cast<std::size_t>(chunk.flow);
  if (rate_.empty()) {
    chunk.key = start + offset_[f];
  } else {
    if (!(rate_[f] > 0.0)) {
      throw std::invalid_argument(
          "key queue: arrival on a class with no guaranteed rate");
    }
    finish_[f] = std::max(finish_[f], start) + chunk.size_kb / rate_[f];
    chunk.key = finish_[f];
  }
  backlog_ += chunk.size_kb;
  heap_.push_back(chunk);
  std::push_heap(heap_.begin(), heap_.end(), ServedAfter{level_});
}

Chunk KeyQueue::pop() {
  const Chunk head = heap_.front();
  remove_head();
  backlog_ -= head.size_kb;
  return head;
}

double KeyQueue::serve(double budget, std::vector<Chunk>* completed) {
  double served = 0.0;
  while (budget > kSizeEps && !heap_.empty()) {
    // A partially served head keeps its key, so it stays on top.
    Chunk& head = heap_.front();
    const double amount = std::min(budget, head.size_kb);
    head.size_kb -= amount;
    budget -= amount;
    served += amount;
    backlog_ -= amount;
    if (head.size_kb <= kSizeEps) {
      completed->push_back(head);
      remove_head();
    }
  }
  return served;
}

void KeyQueue::remove_head() {
  std::pop_heap(heap_.begin(), heap_.end(), ServedAfter{level_});
  heap_.pop_back();
}

std::unique_ptr<Discipline> make_delta_key(std::vector<int> level,
                                           std::vector<double> offset) {
  return std::make_unique<KeyQueue>(std::move(level), std::move(offset));
}

std::unique_ptr<Discipline> make_gps(std::vector<double> weights) {
  return std::make_unique<GpsDiscipline>(std::move(weights));
}

std::unique_ptr<Discipline> make_drr(std::vector<double> quanta) {
  return std::make_unique<DrrDiscipline>(std::move(quanta));
}

std::unique_ptr<Discipline> make_sced(std::vector<double> rates) {
  return std::make_unique<KeyQueue>(KeyQueue::finish_tags(std::move(rates)));
}

}  // namespace deltanc::sim
