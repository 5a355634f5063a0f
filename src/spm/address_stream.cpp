#include "spm/address_stream.h"

#include "foray/emitter.h"

namespace foray::spm {

namespace internal {

std::vector<Nest> model_nests(const core::ForayModel& model, bool fold) {
  // Each group is swept once with all its references interleaved per
  // iteration, the way the emitted program runs it.
  std::vector<Nest> nests;
  for (core::NestGroup& group : core::group_by_nest(model)) {
    Nest& nest = nests.emplace_back();
    nest.trips = std::move(group.trips);
    const size_t refs = group.refs.size();
    const size_t levels = nest.trips.size();
    std::vector<bool> still(levels, true);
    nest.addr.resize(refs);
    nest.steps.resize(levels * refs);
    for (size_t r = 0; r < refs; ++r) {
      const core::ModelReference& ref = model.refs[group.refs[r]];
      nest.addr[r] = static_cast<uint64_t>(ref.fn.const_term);
      const std::vector<int64_t> coefs = ref.emitted_coefs();
      const std::vector<uint64_t> own = odometer_steps(nest.trips, coefs);
      for (size_t l = 0; l < levels; ++l) {
        nest.steps[l * refs + r] = own[l];
        if (coefs[l] != 0) still[l] = false;
      }
    }
    if (!fold) continue;
    // A still level's coefficient is 0, so it adds nothing to the rewind
    // of the levels outside it: the steps hold for the cut trip too.
    for (size_t l = 0; l < levels; ++l) {
      if (!still[l] || nest.trips[l] <= 2) continue;
      if (nest.extra.empty()) nest.extra.assign(levels, 0);
      nest.extra[l] = static_cast<uint64_t>(nest.trips[l]) - 2;
      nest.trips[l] = 2;
    }
  }
  return nests;
}

}  // namespace internal

std::vector<uint32_t> addresses_of(const core::ModelReference& ref,
                                   uint64_t limit) {
  std::vector<uint32_t> out;
  for_each_address(ref, [&](uint32_t a) {
    if (out.size() < limit) out.push_back(a);
  });
  return out;
}

}  // namespace foray::spm
