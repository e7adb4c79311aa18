// Discrete-time Markov-modulated on-off (MMOO) traffic, the workload of
// the paper's numerical examples (Section V).
//
// The source is a two-state Markov chain (OFF = 1, ON = 2) observed once
// per time slot; in an ON slot it emits a fixed burst of P kilobits.
// Transition probabilities: p12 = P(OFF -> ON), p21 = P(ON -> OFF); the
// paper parameterizes by the self-loop probabilities p11 and p22 and
// assumes p12 + p21 <= 1 (positively correlated states).
//
// Its effective bandwidth  eb(s) = (1/(s t)) log E[e^{s A(t)}]  is bounded
// by the log of the spectral radius of the rate-weighted transition
// kernel (Chang, "Performance Guarantees in Communication Networks"):
//
//   eb(s) <= (1/s) log( [ p11 + p22 e^{sP}
//            + sqrt( (p11 + p22 e^{sP})^2 - 4 (p11 + p22 - 1) e^{sP} ) ] / 2 )
//
// An aggregate of N independent such flows then satisfies the EBB model
// of Eq. (27) with  A ~ (1, N * eb(s), s)  by the Chernoff bound.
//
// Units: time in milliseconds (1 slot = 1 ms), data in kilobits, so rates
// are numerically in Mbps.
#pragma once

#include "traffic/ebb.h"

namespace deltanc::traffic {

/// Analytical model of one discrete-time MMOO source.
class MmooSource {
 public:
  /// @param peak_kb   data emitted per ON slot (P), in kilobits
  /// @param p11       P(stay OFF)
  /// @param p22       P(stay ON)
  /// @throws std::invalid_argument unless peak_kb > 0, p11 and p22 lie in
  ///   (0,1), and p12 + p21 <= 1 (the paper's standing assumption).
  MmooSource(double peak_kb, double p11, double p22);

  /// The traffic used in all of the paper's numerical examples:
  /// P = 1.5 kb, p11 = 0.989, p22 = 0.9 -- peak rate 1.5 Mbps, average
  /// rate ~0.15 Mbps.
  static MmooSource paper_source();

  [[nodiscard]] double peak_kb() const noexcept { return peak_; }
  [[nodiscard]] double p11() const noexcept { return p11_; }
  [[nodiscard]] double p22() const noexcept { return p22_; }
  [[nodiscard]] double p12() const noexcept { return 1.0 - p11_; }
  [[nodiscard]] double p21() const noexcept { return 1.0 - p22_; }

  /// Stationary probability of the ON state: p12 / (p12 + p21).
  [[nodiscard]] double stationary_on() const noexcept;
  /// Long-run average rate (kb per slot = Mbps): P * stationary_on().
  [[nodiscard]] double mean_rate() const noexcept;
  /// Peak rate (kb per slot = Mbps).
  [[nodiscard]] double peak_rate() const noexcept { return peak_; }

  /// Effective-bandwidth bound eb(s) (kb per slot) via the spectral
  /// radius of the rate-weighted kernel.  Monotone non-decreasing in s,
  /// with eb(0+) = mean_rate() and eb(inf) = peak_rate().
  /// @throws std::invalid_argument unless s > 0.
  [[nodiscard]] double effective_bandwidth(double s) const;

  /// EBB description (Eq. (27)) of an aggregate of `n` i.i.d. copies of
  /// this source, for Chernoff parameter s:  A ~ (1, n * eb(s), s).
  /// @throws std::invalid_argument unless n >= 1 and s > 0.
  [[nodiscard]] EbbTraffic aggregate_ebb(int n, double s) const;

 private:
  double peak_;
  double p11_;
  double p22_;
};

}  // namespace deltanc::traffic
