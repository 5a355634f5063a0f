// Phase II output: the *transformed* FORAY model code.
//
// The paper's Figure 3 flow ends Phase II with "FORAY model source code
// that is changed to access the scratch pad memory and perform the
// necessary data transfers between scratch pad buffers and main memory";
// the designer back-annotates exactly that into the legacy code (Phase
// III). This module emits that program: the model program
// core::emit_minic prints, through the same nest printer, plus each
// selected buffer. Inside its reference's shared nest, a buffer's fill
// goes before the loop at its split depth (the outermost loop it
// covers), its writeback after that loop, and the access itself is
// redirected into the SPM buffer array; unselected references keep
// their main-memory form. With nothing selected the program is the
// model program below its header comment. It is valid MiniC — the tests
// execute it and check the SPM traffic it generates.
#pragma once

#include <string>

#include "foray/model.h"
#include "spm/dse.h"

namespace foray::spm {

/// The SPM buffer array the emitted code pairs with main-memory array
/// `main_array` ("spm_" + its name).
inline std::string spm_buffer_name(const std::string& main_array) {
  return "spm_" + main_array;
}

/// Emits the transformed FORAY model: selected references access their
/// SPM buffer (filled/written back around the outermost covered loop),
/// the rest stay on their main-memory arrays. Each array declaration
/// follows a comment describing its reference and, when buffered, its
/// SPM buffer.
std::string emit_transformed(const core::ForayModel& model,
                             const Selection& selection);

}  // namespace foray::spm
