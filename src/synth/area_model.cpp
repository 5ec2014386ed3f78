#include "synth/area_model.hpp"

namespace rsp::synth {

AreaBreakdown AreaModel::breakdown(const arch::Architecture& a) const {
  a.validate();
  AreaBreakdown out;
  const int n_pes = a.array.num_pes();

  if (!a.shares_multiplier()) {
    out.pe_each = lib_.base_pe().area_slices;
    out.raw_total = out.pe_each * n_pes;
    out.synthesized_total = out.raw_total * lib_.optimization_factor(false);
    return out;
  }

  const int reachable = a.sharing.units_reachable_per_pe();
  const int total_units = a.sharing.total_units(a.array);

  out.switch_each = lib_.bus_switch(reachable).area_slices;
  out.pe_each = lib_.shared_pe().area_slices + out.switch_each;
  out.shared_units_total =
      lib_.component(arch::Resource::kArrayMultiplier).area_slices *
      total_units;
  if (a.pipelines_multiplier()) {
    const int boundaries = a.sharing.pipeline_stages - 1;
    out.pipeline_regs_total =
        lib_.pipeline_reg_area_per_boundary() * boundaries * total_units;
  }
  out.raw_total = out.pe_each * n_pes + out.shared_units_total +
                  out.pipeline_regs_total;
  out.synthesized_total = out.raw_total * lib_.optimization_factor(true);
  return out;
}

bool AreaModel::satisfies_cost_constraint(const arch::Architecture& a) const {
  const double base = lib_.base_pe().area_slices * a.array.num_pes();
  return estimate(a) < base;
}

double AreaModel::reduction_percent(const arch::Architecture& a) const {
  const arch::Architecture base =
      arch::base_architecture(a.array.rows, a.array.cols);
  const double base_area = synthesized(base);
  return 100.0 * (base_area - synthesized(a)) / base_area;
}

}  // namespace rsp::synth
