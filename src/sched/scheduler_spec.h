// First-class scheduler identity.
//
// The paper's Definition 1 says a link scheduler *is* its precedence
// constants Delta_{j,k}: FIFO is Delta = 0, blind multiplexing (the
// analyzed flow treated as lowest priority) is Delta = +inf, static
// priority with the analyzed flow on the high side is Delta = -inf, and
// EDF is the deadline difference d*_0 - d*_c.  SchedulerSpec is the one
// tagged, parameterized descriptor of that identity used across every
// layer of this codebase:
//
//   solver       e2e::Scenario::scheduler (param_search / Solver facade)
//   Theorem 1    to_delta_matrix() lowers to a sched::DeltaMatrix
//   hetero path  delta_term() yields the per-node Delta(theta) term
//   sweep        SweepGrid scheduler/edf/delta axes (core/sweep.h)
//   wire + cache io/codec.{h,cpp} encode/decode + cache keys
//   CLI          --scheduler / --sweep parsing (parse_scheduler)
//   simulators   sim::TandemConfig / evsim::EvNetworkConfig carry the
//                spec; sim::lower_scheduler lowers it for both, every
//                Delta-kind onto the one Delta-key queue (sim::KeyQueue),
//                offsets from class_offsets()
//
// Not every scheduler admits constants Delta_{j,k} -- GPS, DRR, and
// SCED condition on the backlog process, so Definition 1 does not apply
// to them.  Those kinds are *curve-backed* instead: rate_latency() gives
// their deterministic per-flow leftover guarantee beta_{R,T} in closed
// form, from published constructions (GPS: arXiv:1804.08034; DRR:
// arXiv:2503.23366; fluid SCED: arXiv:1804.08040), rather than through
// the Theorem-1 Delta path.  is_curve_backed() distinguishes the two
// lowering routes; static_delta() is nullopt and to_delta_matrix()
// throws for curve-backed kinds, rate_latency() is nullopt for the
// Delta-kinds.
//
// The name registry at the bottom of this header is the ONLY place the
// canonical scheduler name strings ("fifo", "bmux", "sp-high", "edf",
// "delta:<value>", "gps:<w,...>", "drr:<q,...>", "sced") are spelled;
// scripts/check.sh greps that no other src/ or tools/ file hard-codes
// them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/delta.h"

namespace deltanc::sched {

/// EDF deadline factors: the per-class a-priori delay constraints are
/// d*_0 = own_factor * u and d*_c = cross_factor * u for a deadline unit
/// u (the solver uses u = d_e2e / H, making the deadlines self-referential
/// and the solve a fixed point).
struct EdfFactors {
  double own_factor = 1.0;     ///< through (analyzed) class, in units
  double cross_factor = 10.0;  ///< cross class, in units

  friend constexpr bool operator==(const EdfFactors&,
                                   const EdfFactors&) = default;
};

/// Per-class Definition-1 offsets, in the unit's time base (slots/ms): an
/// arrival of class f at time t is served in the order of t + offset_f.
struct ClassOffsets {
  double through = 0.0;  ///< offset of the analyzed class (d*_0 for EDF)
  double cross = 0.0;    ///< offset of the cross class (d*_c for EDF)
};

/// Per-class share parameters for the curve-backed kinds: GPS weights
/// phi_i, DRR quanta Q_i (kb).  Class 0 is the analyzed (through) class;
/// classes 1.. are cross classes.  Fixed capacity keeps SchedulerSpec
/// trivially copyable and constexpr-constructible (a sweep axis literal
/// of specs must still be a constant expression).
struct ClassWeights {
  static constexpr std::size_t kMaxClasses = 8;

  std::array<double, kMaxClasses> values{1.0, 1.0};  ///< unused slots stay 0
  std::size_t count = 2;

  /// Builds from an explicit list (2..kMaxClasses entries).  Lists
  /// outside that range, or non-positive / non-finite entries, yield the
  /// default equal two-class split; parse_scheduler() rejects such input
  /// before it gets here, and the factories document the clamp.
  [[nodiscard]] static constexpr ClassWeights of(
      std::initializer_list<double> list) noexcept {
    if (list.size() < 2 || list.size() > kMaxClasses) return ClassWeights{};
    ClassWeights w{};
    w.values = {};
    w.count = list.size();
    std::size_t i = 0;
    for (const double v : list) {
      // Reject <= 0, NaN, and inf (v - v is NaN for the non-finite ones).
      if (!(v > 0.0) || !(v - v == 0.0)) return ClassWeights{};
      w.values[i++] = v;
    }
    return w;
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return count; }
  [[nodiscard]] constexpr double operator[](std::size_t i) const noexcept {
    return values[i];
  }
  /// Share parameter of the analyzed (through) class.
  [[nodiscard]] constexpr double through() const noexcept { return values[0]; }
  [[nodiscard]] constexpr double total() const noexcept {
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) sum += values[i];
    return sum;
  }
  /// Sum over the cross classes (everything but class 0).
  [[nodiscard]] constexpr double cross_total() const noexcept {
    return total() - through();
  }
  /// Guaranteed fraction of the link for the through class, phi_0 / sum.
  [[nodiscard]] constexpr double through_share() const noexcept {
    return through() / total();
  }

  friend constexpr bool operator==(const ClassWeights&,
                                   const ClassWeights&) = default;
};

/// Per-class long-run offered load (kb/ms = Mbps) at a node: the analyzed
/// (through) aggregate and the total cross aggregate.  Only the
/// load-proportional kind (SCED) reads it; zero-initialized is fine for
/// the others.
struct ClassLoads {
  double through = 0.0;
  double cross = 0.0;

  friend constexpr bool operator==(const ClassLoads&,
                                   const ClassLoads&) = default;
};

/// A rate-latency description beta_{R,T}(t) = R [t - T]_+ of a
/// deterministic per-node leftover guarantee.
struct RateLatency {
  double rate = 0.0;     ///< R, kb/ms = Mbps
  double latency = 0.0;  ///< T, ms

  friend constexpr bool operator==(const RateLatency&,
                                   const RateLatency&) = default;
};

/// The registered scheduler families.  The first five are
/// Delta-schedulers (Definition 1); the last three are curve-backed (see
/// the header comment and SchedulerSpec::rate_latency).
enum class SchedulerKind : std::uint8_t {
  kFifo,    ///< Delta = 0
  kBmux,    ///< blind multiplexing / SP with through low: Delta = +inf
  kSpHigh,  ///< static priority, through high: Delta = -inf
  kEdf,     ///< earliest deadline first: Delta = d*_0 - d*_c (fixed point)
  kDelta,   ///< explicit fixed Delta offset (continuous FIFO<->BMUX axis)
  kGps,     ///< generalized processor sharing, per-class weights phi_i
  kDrr,     ///< deficit round robin (fluid), per-class quanta Q_i
  kSced,    ///< fluid SCED: capacity split proportional to class load
};

/// Tagged, parameterized scheduler descriptor.  Only the parameters of
/// the active kind are meaningful, but all are carried (and compared, and
/// serialized) so that switching kinds back and forth is lossless -- e.g.
/// a sweep's scheduler axis can toggle kEdf <-> kFifo without forgetting
/// the EDF factors configured on the base scenario.
class SchedulerSpec {
 public:
  constexpr SchedulerSpec() = default;

  /// Implicit by design: `scenario.scheduler = SchedulerKind::kBmux`
  /// compiles and constructs the equivalent spec.
  // NOLINTNEXTLINE(google-explicit-constructor)
  constexpr SchedulerSpec(SchedulerKind kind) : kind_(kind) {}

  /// Kind re-assignment keeps the stored EDF factors (see class comment)
  /// but resets the fixed-Delta value: a bare kind never means "whatever
  /// Delta was left behind".
  constexpr SchedulerSpec& operator=(SchedulerKind kind) noexcept {
    kind_ = kind;
    delta_ = 0.0;
    return *this;
  }

  // ----- factories --------------------------------------------------------
  [[nodiscard]] static constexpr SchedulerSpec fifo() noexcept {
    return SchedulerSpec(SchedulerKind::kFifo);
  }
  [[nodiscard]] static constexpr SchedulerSpec bmux() noexcept {
    return SchedulerSpec(SchedulerKind::kBmux);
  }
  [[nodiscard]] static constexpr SchedulerSpec sp_high() noexcept {
    return SchedulerSpec(SchedulerKind::kSpHigh);
  }
  /// Static priority by side of the analyzed (through) class.  SP with
  /// the through class low *is* blind multiplexing (Sec. III), so
  /// sp(false) == bmux().
  [[nodiscard]] static constexpr SchedulerSpec sp(bool through_high) noexcept {
    return through_high ? sp_high() : bmux();
  }
  [[nodiscard]] static constexpr SchedulerSpec edf(
      double own_factor = 1.0, double cross_factor = 10.0) noexcept {
    SchedulerSpec s(SchedulerKind::kEdf);
    s.edf_ = EdfFactors{own_factor, cross_factor};
    return s;
  }
  [[nodiscard]] static constexpr SchedulerSpec edf(EdfFactors factors) noexcept {
    SchedulerSpec s(SchedulerKind::kEdf);
    s.edf_ = factors;
    return s;
  }
  /// Explicit Delta-scheduler with fixed offset `delta` (may be +/-inf:
  /// fixed_delta(+inf) solves identically to bmux(), fixed_delta(-inf) to
  /// sp_high(), fixed_delta(0) to fifo()).
  [[nodiscard]] static constexpr SchedulerSpec fixed_delta(
      double delta) noexcept {
    SchedulerSpec s(SchedulerKind::kDelta);
    s.delta_ = delta;
    return s;
  }
  /// GPS with per-class weights phi_i (class 0 = through).  Invalid
  /// weight lists fall back to the equal two-class split {1, 1} (see
  /// ClassWeights::of); parse_scheduler() rejects them outright.
  [[nodiscard]] static constexpr SchedulerSpec gps(
      ClassWeights weights = {}) noexcept {
    SchedulerSpec s(SchedulerKind::kGps);
    s.weights_ = weights;
    return s;
  }
  [[nodiscard]] static constexpr SchedulerSpec gps(
      double through_weight, double cross_weight) noexcept {
    return gps(ClassWeights::of({through_weight, cross_weight}));
  }
  /// DRR (fluid model) with per-class quanta Q_i in kb (class 0 =
  /// through).  Same clamping rules as gps().
  [[nodiscard]] static constexpr SchedulerSpec drr(
      ClassWeights quanta = {}) noexcept {
    SchedulerSpec s(SchedulerKind::kDrr);
    s.weights_ = quanta;
    return s;
  }
  [[nodiscard]] static constexpr SchedulerSpec drr(
      double through_quantum, double cross_quantum) noexcept {
    return drr(ClassWeights::of({through_quantum, cross_quantum}));
  }
  /// Fluid SCED: rate_latency() splits capacity proportionally to the
  /// per-class offered load, so it carries no parameters of its own.
  [[nodiscard]] static constexpr SchedulerSpec sced() noexcept {
    return SchedulerSpec(SchedulerKind::kSced);
  }

  // ----- observers --------------------------------------------------------
  [[nodiscard]] constexpr SchedulerKind kind() const noexcept { return kind_; }
  /// The fixed offset (meaningful for kDelta; 0 otherwise).
  [[nodiscard]] constexpr double delta() const noexcept { return delta_; }
  [[nodiscard]] constexpr const EdfFactors& edf_factors() const noexcept {
    return edf_;
  }
  constexpr void set_edf_factors(EdfFactors factors) noexcept {
    edf_ = factors;
  }
  /// Class weights/quanta (meaningful for kGps/kDrr; default {1, 1}
  /// otherwise, carried and compared like the EDF factors).
  [[nodiscard]] constexpr const ClassWeights& weights() const noexcept {
    return weights_;
  }
  constexpr void set_weights(ClassWeights weights) noexcept {
    weights_ = weights;
  }

  /// True when the scheduler's Delta depends on the (unknown) delay bound
  /// itself and the solver must run the EDF fixed point.
  [[nodiscard]] constexpr bool needs_fixed_point() const noexcept {
    return kind_ == SchedulerKind::kEdf;
  }

  /// True for the kinds that are not Delta-schedulers and lower via
  /// rate_latency() instead of the Theorem-1 Delta path (kGps, kDrr,
  /// kSced).  For these, static_delta() is nullopt, delta_term() is NaN,
  /// and to_delta_matrix() throws.
  [[nodiscard]] constexpr bool is_curve_backed() const noexcept {
    return kind_ == SchedulerKind::kGps || kind_ == SchedulerKind::kDrr ||
           kind_ == SchedulerKind::kSced;
  }

  /// The scheduler's Delta(theta) term when it does not depend on the
  /// solve; nullopt for kEdf (fixed point) and for the curve-backed kinds
  /// (no Delta exists at all).
  [[nodiscard]] std::optional<double> static_delta() const noexcept;

  /// The through-vs-cross Delta term, resolving EDF deadlines against the
  /// unit `edf_unit` (= d_e2e / H at the solver layer): this is the value
  /// fed to the homogeneous solver and to e2e::NodeParams::delta on a
  /// HeteroPath node.  Quiet NaN for curve-backed kinds -- callers on the
  /// Delta path must check is_curve_backed() first.
  [[nodiscard]] double delta_term(double edf_unit) const noexcept;

  /// The per-class offsets a Delta-key queue runs to realize the spec:
  /// factor * edf_unit for kEdf, and (max(Delta, 0), max(-Delta, 0)) of
  /// static_delta() for the other Delta-kinds -- fifo {0, 0}, bmux
  /// {+inf, 0}, sp-high {0, +inf}.  Either way through - cross is exactly
  /// delta_term(edf_unit), which by Def. 1 is all the scheduler sees.
  /// Meaningless for curve-backed kinds; sim::lower_scheduler builds
  /// every Delta-kind of both simulators from it.
  [[nodiscard]] ClassOffsets class_offsets(double edf_unit) const noexcept;

  /// The closed-form per-node guarantee beta_{R,T} of a curve-backed kind
  /// on a link of rate `capacity`; nullopt for the Delta-kinds (their
  /// leftover depends on the cross envelopes and theta, Theorem 1).
  ///
  ///   GPS   R = (phi_0 / sum_i phi_i) C,  T = 0   (arXiv:1804.08034)
  ///   DRR   R = (Q_0 / sum_i Q_i) C,      T = (sum_i Q_i - Q_0) / C
  ///         (fluid DRR, arXiv:2503.23366: one full round of the other
  ///         quanta can pass before class 0 is served)
  ///   SCED  R = C rho_0 / (rho_0 + rho_c), T = 0   (arXiv:1804.08040);
  ///         the whole link when both loads are 0
  ///
  /// docs/THEORY.md#leftover-service-curves-beyond-delta derives them.
  /// @throws std::invalid_argument for a curve-backed kind when
  /// `capacity` is not positive and finite, and for kSced when a load is
  /// negative or not finite.
  [[nodiscard]] std::optional<RateLatency> rate_latency(
      double capacity, const ClassLoads& loads = {}) const;

  /// Lowers the spec onto the Theorem-1 layer: the DeltaMatrix over
  /// `flows` flows with `analyzed` as the through flow.  EDF deadlines
  /// are factor * edf_unit (must come out finite and non-negative).
  /// @throws std::invalid_argument on bad sizes/deadlines (DeltaMatrix),
  /// and for curve-backed kinds (use rate_latency()).
  [[nodiscard]] DeltaMatrix to_delta_matrix(std::size_t flows,
                                            std::size_t analyzed,
                                            double edf_unit = 1.0) const;

  /// Full identity comparison (kind and all carried parameters; see the
  /// class comment for why inactive parameters participate).
  friend constexpr bool operator==(const SchedulerSpec&,
                                   const SchedulerSpec&) = default;
  /// Kind-only comparison, so `sc.scheduler == SchedulerKind::kEdf`
  /// keeps working.
  friend constexpr bool operator==(const SchedulerSpec& s,
                                   SchedulerKind kind) noexcept {
    return s.kind_ == kind;
  }

 private:
  SchedulerKind kind_ = SchedulerKind::kFifo;
  double delta_ = 0.0;
  EdfFactors edf_{};
  ClassWeights weights_{};
};

// ----- canonical name/params registry -------------------------------------
// The single source of scheduler name strings shared by sweep axes, the
// JSON codec, cache keys, CLI parsing, and report rendering.

/// Canonical short name of a kind ("fifo", "bmux", "sp-high", "edf",
/// "delta", "gps", "drr", "sced").
[[nodiscard]] std::string_view scheduler_kind_name(SchedulerKind kind) noexcept;

/// Inverse of scheduler_kind_name; returns false on unknown names.
[[nodiscard]] bool scheduler_kind_from_name(std::string_view name,
                                            SchedulerKind& out) noexcept;

/// Canonical display/parse form of a spec: the kind name, except kDelta
/// renders as "delta:<value>" (e.g. "delta:2.5", "delta:inf") and
/// kGps/kDrr render their weight lists ("gps:1,1", "drr:2,1").
[[nodiscard]] std::string to_string(const SchedulerSpec& spec);

/// Parses the forms produced by to_string(): a registered kind name,
/// "delta:<value>" with a finite or infinite value, or
/// "gps:<w1,w2,...>" / "drr:<q1,q2,...>" with 2..ClassWeights::kMaxClasses
/// positive finite entries.  Bare "gps"/"drr" mean the equal two-class
/// split {1, 1}; bare "delta" is rejected (no default offset exists).
/// Returns false (leaving `out` untouched) on anything else.  Parsed
/// specs carry default EDF factors; callers wanting non-default factors
/// set them afterwards.
[[nodiscard]] bool parse_scheduler(std::string_view text, SchedulerSpec& out);

/// Locale-independent strict double parse (std::from_chars), the same
/// grammar the JSON layer emits: an optional '-', decimal digits with an
/// optional fraction and exponent, or the words "inf" / "-inf" / "nan".
/// Rejects everything std::strtod would silently tolerate on top of
/// that -- leading whitespace, a '+' sign, hexfloat ("0x2"), trailing
/// garbage -- and never consults the C locale's decimal point.  Returns
/// false (leaving `out` untouched) on any rejected form.
[[nodiscard]] bool parse_strict_double(std::string_view text,
                                       double& out) noexcept;

/// Parses a comma-separated list of scheduler names into specs.  Because
/// "gps:1,2" itself contains commas, tokens are joined by maximal munch:
/// at each position the longest comma-joined run of tokens that
/// parse_scheduler() accepts wins ("fifo,gps:1,2,edf" -> fifo, gps:1,2,
/// edf).  Returns false (leaving `out` untouched) if any position has no
/// parse.
[[nodiscard]] bool parse_scheduler_list(std::string_view text,
                                        std::vector<SchedulerSpec>& out);

/// Usage string for CLIs:
/// "fifo | bmux | sp-high | edf | delta:<Delta> | gps[:<w,...>] |
///  drr[:<q,...>] | sced".
[[nodiscard]] std::string scheduler_usage_names();

/// Long human-readable description, for reports.
[[nodiscard]] std::string scheduler_description(const SchedulerSpec& spec);

}  // namespace deltanc::sched
