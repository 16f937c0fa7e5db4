#pragma once

/// @file objective.h
/// Pluggable search objectives for the window scan.
///
/// The paper's Algorithm 1 minimizes computing cycles, but its own
/// premise (§II-B) is that AD/DA conversions dominate PIM *energy* -- and
/// cycle count and conversion count are not the same thing under
/// per-active-column accounting (a window with fewer cycles can need a
/// higher AR split and therefore more partial-sum conversions; see
/// bench_energy).  An Objective turns "which candidate wins" into a
/// strategy: every search mapper scores candidates through the objective
/// in its MappingContext instead of comparing raw CycleCost totals.
///
/// Built-ins:
///  * `cycles` -- the paper's objective.  Scores are exact cycle counts
///    (integers below 2^53), the comparison is the strict `<` of
///    Algorithm 1, so searches are bit-identical to the pre-objective
///    code, first-minimum tie-break included.
///  * `energy` -- analytic per-active-row/column energy (pJ) of one
///    inference under pim/energy_model's literature-scale defaults.
///    Active-only accounting is deliberate: under full-array accounting
///    energy is exactly proportional to cycles and the objective would
///    never choose differently.
///  * `edp` -- energy-delay product (pJ x ns): energy as above times
///    `cycles * cycle_ns` latency.
///
/// Scores are lower-is-better doubles; `better()` is a strict comparison,
/// so the first candidate reaching the minimum wins, matching the paper's
/// tie-break convention under every objective.

#include <memory>
#include <string>
#include <vector>

#include "mapping/conv_shape.h"
#include "mapping/cost_model.h"
#include "pim/array_geometry.h"
#include "pim/energy_model.h"

namespace vwsdk {

/// Scoring strategy for candidate mappings (lower scores win).
class Objective {
 public:
  virtual ~Objective() = default;

  /// Short stable identifier ("cycles", "energy", "edp").
  virtual std::string name() const = 0;

  /// Unit of the score ("cycles", "pJ", "pJ.ns") for reports.
  virtual std::string unit() const = 0;

  /// One-line description for --help and docs.
  virtual std::string description() const = 0;

  /// Score of a *feasible* candidate mapping; lower is better.
  virtual double score(const ConvShape& shape, const ArrayGeometry& geometry,
                       const CycleCost& cost) const = 0;

  /// True when `candidate` must replace an incumbent scoring `incumbent`.
  /// The default is strictly-lower, which preserves the paper's
  /// first-minimum tie-break (equal scores keep the earlier candidate).
  virtual bool better(double candidate, double incumbent) const {
    return candidate < incumbent;
  }

  /// True when "candidate cycles >= incumbent score implies no
  /// improvement" pruning on raw cycle counts is admissible -- i.e. the
  /// score is the cycle count itself.  The pruned mapper's lower-bound
  /// cut (cycles >= N_PW) relies on this; objectives that are not
  /// monotone in cycles (energy under active accounting) must return
  /// false or the prune would discard their optimum.
  virtual bool cycle_lower_bound_admissible() const { return false; }

  /// Memoization identity: two Objective instances whose cache keys
  /// match must score every mapping identically.  Defaults to name();
  /// parameterized objectives MUST extend it with their parameters, or
  /// a shared MappingCache would serve one parameterization's optimum
  /// to another (the built-in energy/edp objectives embed their
  /// EnergyParams).
  virtual std::string cache_key() const { return name(); }

  /// Score of one *pipeline stage* inside a chip-level allocation
  /// (sim/chip_allocator.h): the stage's per-inference work is `groups`
  /// identical copies of `cost` (a grouped layer runs G independent
  /// sub-convolutions), dispatched over enough arrays that the stage
  /// finishes in `makespan` cycles.  Lower is better.  The default
  /// prices the work itself (groups x score) and ignores the makespan
  /// -- correct for objectives parallelism cannot improve (energy:
  /// replication divides time, never conversions).  Latency-priced
  /// objectives override it: `cycles` scores the makespan directly and
  /// `edp` re-prices its delay factor with the parallel makespan.
  virtual double stage_score(const ConvShape& shape,
                             const ArrayGeometry& geometry,
                             const CycleCost& cost, Dim groups,
                             Cycles makespan) const {
    (void)makespan;
    return static_cast<double>(groups) * score(shape, geometry, cost);
  }
};

/// The paper's objective: minimize CycleCost::total.  Scoring through it
/// is bit-identical to comparing raw totals (cycle counts are exact in a
/// double below 2^53, far beyond any real network).
const Objective& cycles_objective();

/// Analytic active-accounting energy (default EnergyParams).
const Objective& energy_objective();

/// Energy-delay product (default EnergyParams).
const Objective& edp_objective();

/// The built-in objective with this (case-insensitive, trimmed) name;
/// throws NotFound listing the known names.
const Objective& objective_by_name(const std::string& name);

/// Names of the built-in objectives, in presentation order:
/// {"cycles", "energy", "edp"}.
std::vector<std::string> objective_names();

/// Energy objective with caller-supplied constants (the built-in
/// `energy` singleton uses the defaults).
class EnergyObjective final : public Objective {
 public:
  EnergyObjective() = default;
  explicit EnergyObjective(const EnergyParams& params);

  std::string name() const override { return "energy"; }
  std::string unit() const override { return "pJ"; }
  std::string description() const override;
  double score(const ConvShape& shape, const ArrayGeometry& geometry,
               const CycleCost& cost) const override;
  std::string cache_key() const override;

  const EnergyParams& params() const { return params_; }

 private:
  EnergyParams params_{};
};

/// Energy-delay-product objective with caller-supplied constants.
class EdpObjective final : public Objective {
 public:
  EdpObjective() = default;
  explicit EdpObjective(const EnergyParams& params);

  std::string name() const override { return "edp"; }
  std::string unit() const override { return "pJ.ns"; }
  std::string description() const override;
  double score(const ConvShape& shape, const ArrayGeometry& geometry,
               const CycleCost& cost) const override;
  std::string cache_key() const override;
  double stage_score(const ConvShape& shape, const ArrayGeometry& geometry,
                     const CycleCost& cost, Dim groups,
                     Cycles makespan) const override;

  const EnergyParams& params() const { return params_; }

 private:
  EnergyParams params_{};
};

}  // namespace vwsdk
