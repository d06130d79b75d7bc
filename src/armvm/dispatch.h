// Engine-selection helpers for the execution-engine hierarchy
// (perstep / predecode / threaded), shared by every harness that takes
// an `--engine=` flag, plus a build-configuration probe for the
// threaded dispatcher.
//
// The threaded engine itself lives in dispatch.cpp: Cpu::run_threaded
// (the chunk runner with block-head lookup and per-instruction
// fallback) and Cpu::run_fused_block (the token-threaded superblock
// dispatcher that chains from block to block across their closing
// branches, instantiated from exec_fused.inc as computed-goto labels on
// GNU/Clang and as a switch on everything else — or everywhere when the
// ECCM0_SWITCH_DISPATCH CMake option forces the portable form).
#pragma once

#include <string_view>

#include "armvm/cpu.h"

namespace eccm0::armvm {

/// Engine spelling used by every `--engine=` flag.
inline constexpr const char* kEngineFlagValues = "perstep|predecode|threaded";

/// Map an `--engine=` value to a DecodeMode. Throws
/// std::invalid_argument on anything but perstep|predecode|threaded.
Cpu::DecodeMode decode_mode_from_name(std::string_view name);

/// Inverse of decode_mode_from_name (for reports and JSON rows).
const char* decode_mode_name(Cpu::DecodeMode mode);

/// True when this build dispatches fused blocks with computed goto;
/// false in the portable switch fallback (non-GNU compilers or
/// -DECCM0_SWITCH_DISPATCH=ON).
bool threaded_dispatch_uses_computed_goto();

}  // namespace eccm0::armvm
