// Trace rendering.
//
// Production never reads a trace back: the extractor runs online during
// profiling (foray/extractor.h), so nothing here parses. Two writers
// remain:
//  - record_to_text(): the paper's Figure 4(c) line form, which
//    `foraygen trace` prints.
//  - write_binary(): a compact encoding. It defines the bytes of the
//    golden fixtures (tests/golden/*.trace) and prices the offline trace
//    in the online-analysis ablation (E9, bench/ablation_online.cpp).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/record.h"

namespace foray::trace {

/// Renders one record in the paper-like text form, e.g.
///   "Checkpoint: body_begin 15"
///   "Instr: 4002a0 addr: 7fff5934 wr 1 data"
std::string record_to_text(const Record& r);

/// Encodes `count` records (a whole materialized trace or a slice of one).
void write_binary(std::ostream& os, const Record* records, size_t count);

}  // namespace foray::trace
