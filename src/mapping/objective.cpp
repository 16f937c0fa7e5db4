#include "mapping/objective.h"

#include <sstream>

#include "common/error.h"
#include "common/string_util.h"
#include "mapping/activity.h"

namespace vwsdk {

namespace {

/// Round-trip-exact rendering of one parameter (hexfloat: two doubles
/// collide only when they are the same value).
std::string exact(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

/// "name@dac=...,adc=...,cell=...,t=..." -- exact parameters so distinct
/// parameterizations get distinct memoization identities.
std::string params_cache_key(const std::string& name,
                             const EnergyParams& params) {
  return cat(name, "@dac=", exact(params.dac_pj_per_row),
             ",adc=", exact(params.adc_pj_per_col),
             ",cell=", exact(params.cell_pj_per_mac),
             ",t=", exact(params.cycle_ns));
}

/// The paper's objective; scores are exact cycle counts.
class CyclesObjective final : public Objective {
 public:
  std::string name() const override { return "cycles"; }
  std::string unit() const override { return "cycles"; }
  std::string description() const override {
    return "computing cycles (the paper's Algorithm 1 objective)";
  }
  double score(const ConvShape&, const ArrayGeometry&,
               const CycleCost& cost) const override {
    return static_cast<double>(cost.total);
  }
  bool cycle_lower_bound_admissible() const override { return true; }
  double stage_score(const ConvShape&, const ArrayGeometry&,
                     const CycleCost&, Dim, Cycles makespan) const override {
    return static_cast<double>(makespan);
  }
};

}  // namespace

EnergyObjective::EnergyObjective(const EnergyParams& params)
    : params_(params) {
  params_.validate();
}

std::string EnergyObjective::description() const {
  return "analytic conversion energy, active rows/columns only (pJ)";
}

double EnergyObjective::score(const ConvShape& shape,
                              const ArrayGeometry& geometry,
                              const CycleCost& cost) const {
  return analytic_activity(shape, geometry, cost).energy_pj(params_);
}

std::string EnergyObjective::cache_key() const {
  return params_cache_key(name(), params_);
}

EdpObjective::EdpObjective(const EnergyParams& params) : params_(params) {
  params_.validate();
}

std::string EdpObjective::description() const {
  return "energy-delay product: active energy x cycle latency (pJ.ns)";
}

double EdpObjective::score(const ConvShape& shape,
                           const ArrayGeometry& geometry,
                           const CycleCost& cost) const {
  const EnergyReport activity = analytic_activity(shape, geometry, cost);
  return activity.energy_pj(params_) * activity.latency_ns(params_);
}

std::string EdpObjective::cache_key() const {
  return params_cache_key(name(), params_);
}

double EdpObjective::stage_score(const ConvShape& shape,
                                 const ArrayGeometry& geometry,
                                 const CycleCost& cost, Dim groups,
                                 Cycles makespan) const {
  // Energy is the full per-inference conversion count (all G groups);
  // delay is the parallel stage latency, not the serial cycle count.
  const double energy =
      static_cast<double>(groups) *
      analytic_activity(shape, geometry, cost).energy_pj(params_);
  return energy * static_cast<double>(makespan) * params_.cycle_ns;
}

const Objective& cycles_objective() {
  static const CyclesObjective objective;
  return objective;
}

const Objective& energy_objective() {
  static const EnergyObjective objective;
  return objective;
}

const Objective& edp_objective() {
  static const EdpObjective objective;
  return objective;
}

const Objective& objective_by_name(const std::string& name) {
  const std::string key = to_lower(trim(name));
  for (const Objective* objective :
       {&cycles_objective(), &energy_objective(), &edp_objective()}) {
    if (objective->name() == key) {
      return *objective;
    }
  }
  throw NotFound(cat("unknown objective '", name,
                     "'; known: ", join(objective_names(), ", ")));
}

std::vector<std::string> objective_names() {
  return {cycles_objective().name(), energy_objective().name(),
          edp_objective().name()};
}

}  // namespace vwsdk
