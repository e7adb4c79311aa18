// A non-preemptive work-conserving server: transmits one packet at a time
// at a fixed rate; when a transmission finishes, the policy picks the
// next packet.  Drives the event-driven tandem of evsim/network.h and is
// directly usable in tests for crafted scenarios (priority inversion,
// fairness, ...).
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "evsim/policy.h"

namespace deltanc::evsim {

/// A completed transmission.
struct Departure {
  sim::Chunk packet;
  double time;  ///< transmission end time (ms)
};

class Server {
 public:
  /// @throws std::invalid_argument unless rate > 0 and policy non-null.
  Server(double rate_kb_per_ms, std::unique_ptr<Policy> policy);

  /// Packet arrival at `time`.  Times passed to the server must be
  /// non-decreasing across calls (checked).  If the server is idle the
  /// packet enters service immediately.
  void arrive(sim::Chunk packet, double time);

  /// Time at which the in-service packet completes; +infinity when idle.
  [[nodiscard]] double next_completion() const noexcept;

  /// Completes the in-service packet (requires one in service), starts
  /// the next queued packet, and returns the departure.
  /// @throws std::logic_error when idle.
  Departure complete_one();

  /// Queued + in-service data (kb).
  [[nodiscard]] double backlog_kb() const;
  [[nodiscard]] bool busy() const noexcept { return in_service_.has_value(); }
  [[nodiscard]] double rate() const noexcept { return rate_; }
  /// Total kb fully transmitted so far.
  [[nodiscard]] double transmitted_kb() const noexcept { return done_kb_; }

 private:
  double rate_;
  std::unique_ptr<Policy> policy_;
  std::optional<sim::Chunk> in_service_;
  double completion_time_ = std::numeric_limits<double>::infinity();
  double last_event_time_ = 0.0;
  double done_kb_ = 0.0;

  void start_next(double now);
};

}  // namespace deltanc::evsim
