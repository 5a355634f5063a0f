// Versioned binary serialization of the extracted FORAY model.
//
// Phase I (profile + extract) is expensive and deterministic; its output
// — the ForayModel: per-context affine references — is small. This
// format lets a model be written once and re-loaded by later processes
// (the content-addressed model cache in driver/model_cache and the
// `foraygen serve` loop), turning warm sweeps into pure Phase II work.
// How the model was built (ModelBuildStats) is a report, not part of the
// model, so the bytes are the same from every profiling pass.
//
// Hardened the same way as the golden-trace reader (trace/io.cpp): magic
// and version checks, count-vs-bytes plausibility *before* any allocation
// is sized from a header field, and truncation detection — every failure
// comes back as a classified util::Status (kInvalidInput for malformed
// bytes, kIoError for bytes that end too early), never a crash or a
// silently wrong model. The writer is deterministic: serializing a loaded
// model reproduces the input bytes exactly, which is what lets cache
// entries be verified by round-trip.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "foray/model.h"
#include "util/status.h"

namespace foray::core {

/// Bump on any layout change; readers reject other versions as
/// kInvalidInput (a stale cache entry is recomputed, never guessed at).
/// Version 2 dropped the build statistics that version 1 stored.
inline constexpr uint32_t kModelFormatVersion = 2;

/// Writes `model` in the FMDL binary format. Deterministic: equal models
/// produce equal bytes, and write(read(bytes)) == bytes.
void write_model(std::ostream& os, const ForayModel& model);
std::string model_to_bytes(const ForayModel& model);

/// Reads one FMDL model. On failure `*out` is reset to an empty model and
/// the status classifies the problem (phase "model-io").
util::Status read_model(std::istream& is, ForayModel* out);
util::Status model_from_bytes(std::string_view bytes, ForayModel* out);

}  // namespace foray::core
