#include "evsim/server.h"

#include <stdexcept>

namespace deltanc::evsim {

Server::Server(double rate_kb_per_ms, std::unique_ptr<Policy> policy)
    : rate_(rate_kb_per_ms), policy_(std::move(policy)) {
  if (!(rate_ > 0.0)) {
    throw std::invalid_argument("Server: rate must be > 0");
  }
  if (policy_ == nullptr) {
    throw std::invalid_argument("Server: policy must not be null");
  }
}

void Server::arrive(sim::Chunk packet, double time) {
  if (time < last_event_time_ - 1e-9) {
    throw std::logic_error("Server::arrive: time went backwards");
  }
  last_event_time_ = time;
  packet.arrival = time;
  policy_->enqueue(packet);
  if (!in_service_.has_value()) {
    start_next(time);
  }
}

double Server::next_completion() const noexcept { return completion_time_; }

Departure Server::complete_one() {
  if (!in_service_.has_value()) {
    throw std::logic_error("Server::complete_one: server is idle");
  }
  Departure dep{*in_service_, completion_time_};
  done_kb_ += dep.packet.size_kb;
  last_event_time_ = completion_time_;
  in_service_.reset();
  completion_time_ = std::numeric_limits<double>::infinity();
  start_next(dep.time);
  return dep;
}

double Server::backlog_kb() const {
  return policy_->backlog_kb() +
         (in_service_.has_value() ? in_service_->size_kb : 0.0);
}

void Server::start_next(double now) {
  std::optional<sim::Chunk> next = policy_->dequeue();
  if (!next.has_value()) return;
  completion_time_ = now + next->size_kb / rate_;
  in_service_ = std::move(next);
}

}  // namespace deltanc::evsim
