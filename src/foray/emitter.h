// FORAY model emission: renders the model IR as C source.
//
// Two renderings:
//  - emit_minic(): a *valid MiniC program*. Every reference's address
//    function is rebased to a zero-origin array of exactly the spanned
//    size, so the program parses, checks and runs on the bundled
//    simulator. Re-extracting a FORAY model from this program recovers
//    the same loop trips and coefficients (round-trip property test).
//    Its one nest printer also prints Phase II's transformed program
//    (spm/transform.h): the same nests, with text the caller places
//    around each buffered reference (RefText).
//  - emit_paper_style(): the display form of the paper's Figure 2/4(d),
//    with absolute base addresses (not compilable; documentation only).
#pragma once

#include <string>
#include <string_view>
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

/// Offset extremes of a reference's emitted function over its loops
/// [from, M), relative to const_term. Summed modulo 2^64: a model file
/// may carry any i64 trip and coefficient, and a reach past the int64
/// range wraps instead of overflowing.
struct Span {
  int64_t min_off = 0;  ///< most negative iterator contribution
  int64_t max_off = 0;  ///< most positive iterator contribution
};
Span offset_span(const ModelReference& ref, size_t from = 0);

/// Bytes an array covering the reference's loops [from, M) spans: the
/// offset extent plus one access, at least one byte (modulo 2^64, like
/// offset_span). The model program's arrays, the SPM buffers and the
/// DSE's candidate sizes (spm::candidate_at) all take it from here.
uint64_t span_bytes(const ModelReference& ref, size_t from = 0);

/// Loop-variable name for position `pos` of an emitted path. Usually
/// "i<loop_id>"; recursion can repeat a site in one path, in which case
/// later occurrences get a positional suffix.
std::string loop_var(const std::vector<int>& path, size_t pos);

/// Renders "base + c * iN + ..." over the loops of `path`, zero
/// coefficients omitted.
std::string index_expr(int64_t base, const std::vector<int64_t>& coefs,
                       const std::vector<int>& path);

/// Text a caller places around one reference of emit_minic's program.
/// Lines are indented relative to the statement they sit beside.
struct RefText {
  std::string note;     ///< appended to the declaration comment
  std::string decls;    ///< declarations after the reference's array
  size_t depth = 0;     ///< nest depth of `before` and `after` (< M)
  std::string before;   ///< lines right before the loop at `depth`
  std::string after;    ///< lines right after that loop
  std::string element;  ///< the access's element; empty: its own array
};

/// Each nest of group_by_nest() is emitted as one loop nest, and each
/// array declaration follows a comment with its reference's provenance
/// (describe_reference).
std::string emit_minic(const ForayModel& model);

/// emit_minic() under `header`, with texts[i] placed around reference i
/// (`texts` is empty or holds one text per reference; a default one
/// places nothing).
std::string emit_minic(const ForayModel& model, std::string_view header,
                       const std::vector<RefText>& texts);

std::string emit_paper_style(const ForayModel& model);

/// Human-readable form of one reference's affine function, e.g.
/// "0x7fff5934 + 1*i15 + 103*i12 (full)" — used in reports and hints.
std::string describe_reference(const ModelReference& ref);

}  // namespace foray::core
