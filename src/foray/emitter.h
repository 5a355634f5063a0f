// FORAY model emission: renders the model IR as C source.
//
// Two renderings:
//  - emit_minic(): a *valid MiniC program*. Every reference's address
//    function is rebased to a zero-origin array of exactly the spanned
//    size, so the program parses, checks and runs on the bundled
//    simulator. Re-extracting a FORAY model from this program recovers
//    the same loop trips and coefficients (round-trip property test).
//  - emit_paper_style(): the display form of the paper's Figure 2/4(d),
//    with absolute base addresses (not compilable; documentation only).
#pragma once

#include <string>
#include <vector>

#include "foray/model.h"

namespace foray::core {

/// Stable, collision-free array names for every model reference
/// ("A<instr-hex>", with "_c2", "_c3" suffixes for the same instruction
/// in additional dynamic contexts).
std::vector<std::string> assign_array_names(const ForayModel& model);

/// References that share an emitted loop nest: the same emitted loop
/// path and trip counts.
struct NestGroup {
  std::vector<int> path;       ///< emitted loop path, outermost first
  std::vector<int64_t> trips;  ///< emitted trips, outermost first
  std::vector<size_t> refs;    ///< indices into ForayModel::refs, in order
};

/// The model's nests in order of first appearance. emit_minic() writes
/// one loop nest per group, its references interleaved per iteration in
/// this order; the cache comparison's address stream
/// (spm/address_stream.h) walks the groups the same way.
std::vector<NestGroup> group_by_nest(const ForayModel& model);

/// Each nest of group_by_nest() is emitted as one loop nest, and each
/// array declaration follows a comment with its reference's provenance
/// (describe_reference).
std::string emit_minic(const ForayModel& model);

std::string emit_paper_style(const ForayModel& model);

/// Human-readable form of one reference's affine function, e.g.
/// "0x7fff5934 + 1*i15 + 103*i12 (full)" — used in reports and hints.
std::string describe_reference(const ModelReference& ref);

}  // namespace foray::core
