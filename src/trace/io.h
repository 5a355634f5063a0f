// Trace serialization.
//
// Two interchangeable encodings:
//  - A text format close to the paper's Figure 4(c) listing, for human
//    inspection and documentation examples.
//  - A compact binary format for the offline-analysis ablation (E9),
//    where trace volume matters.
// Both round-trip exactly (property-tested).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.h"
#include "util/status.h"

namespace foray::trace {

// -- text -------------------------------------------------------------------

/// Renders one record in the paper-like text form, e.g.
///   "Checkpoint: body_begin 15"
///   "Instr: 4002a0 addr: 7fff5934 wr 1 data"
std::string record_to_text(const Record& r);

void write_text(std::ostream& os, const std::vector<Record>& records);

/// Parses the text format. Malformed lines fail as kInvalidInput with a
/// 1-based line number; parsing stops at the first error. Records parsed
/// before the error remain appended to *out (callers that need
/// all-or-nothing should parse into a scratch vector).
util::Status read_text(std::istream& is, std::vector<Record>* out);

// -- binary -----------------------------------------------------------------

void write_binary(std::ostream& os, const std::vector<Record>& records);

/// Chunk-friendly form for callers that hold records in a flat buffer
/// (e.g. a slice of a materialized trace).
void write_binary(std::ostream& os, const Record* records, size_t count);

/// Parses the binary format. Hardened against hostile input: a bad magic
/// or unknown record tag is kInvalidInput; truncation (header or body) is
/// kIoError; a header whose record count cannot fit in the remaining
/// bytes is rejected up front as kInvalidInput, before any allocation
/// sized from it. Fault site "trace.chunk.corrupt" injects a kIoError
/// here for the fault-injection harness.
util::Status read_binary(std::istream& is, std::vector<Record>* out);

}  // namespace foray::trace
