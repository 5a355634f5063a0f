// Scratch-pad configuration evaluation (Phase II step 4).
//
// Given a buffer selection, computes the resulting memory traffic and
// energy: selected references hit the SPM (plus their fill traffic),
// everything else goes to main memory.
#pragma once

#include "foray/model.h"
#include "spm/dse.h"
#include "spm/energy.h"

namespace foray::spm {

/// Analytic evaluation of a selection against the whole model: accesses
/// of unselected references (and the fill traffic of selected ones) are
/// charged to main memory.
EnergyReport evaluate_selection(const core::ForayModel& model,
                                const Selection& selection,
                                const DseOptions& opts);

/// The trivial configuration: no SPM at all.
EnergyReport evaluate_baseline(const core::ForayModel& model,
                               const EnergyModel& energy);

}  // namespace foray::spm
