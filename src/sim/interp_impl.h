// The simulator's two entry points in one include: run_program()
// (sim/interpreter.h) runs a checked program on the engine that
// RunOptions::engine names, and run_compiled_with() (sim/bytecode.h)
// runs an already-compiled program on the bytecode VM. The engines
// themselves are private to sim/interpreter.cpp and sim/vm.cpp.
#pragma once

#include "sim/bytecode.h"
#include "sim/interpreter.h"
