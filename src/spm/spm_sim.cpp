#include "spm/spm_sim.h"

#include <set>

namespace foray::spm {

EnergyReport evaluate_baseline(const core::ForayModel& model,
                               const EnergyModel& energy) {
  EnergyReport r;
  for (const auto& ref : model.refs) r.dram_accesses += ref.exec_count;
  r.baseline_nj = static_cast<double>(r.dram_accesses) * energy.dram_nj;
  r.total_nj = r.baseline_nj;
  return r;
}

EnergyReport evaluate_selection(const core::ForayModel& model,
                                const Selection& selection,
                                const DseOptions& opts) {
  EnergyReport r;
  std::set<size_t> selected;
  for (const auto& c : selection.chosen) selected.insert(c.ref_index);

  const double spm_nj = opts.energy.spm_access_nj(opts.spm_capacity);
  const double dram_nj = opts.energy.dram_nj;

  uint64_t total_accesses = 0;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    total_accesses += model.refs[i].exec_count;
  }
  r.baseline_nj = static_cast<double>(total_accesses) * dram_nj;

  for (const auto& c : selection.chosen) {
    r.spm_accesses += c.spm_accesses;
    r.transfer_words += c.transfer_words;
  }
  for (size_t i = 0; i < model.refs.size(); ++i) {
    if (!selected.count(i)) r.dram_accesses += model.refs[i].exec_count;
  }
  r.total_nj = static_cast<double>(r.spm_accesses) * spm_nj +
               static_cast<double>(r.dram_accesses) * dram_nj +
               static_cast<double>(r.transfer_words) * (dram_nj + spm_nj);
  return r;
}

}  // namespace foray::spm
