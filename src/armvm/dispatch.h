// Engine-selection helpers for the execution-engine hierarchy
// (perstep / predecode / threaded), shared by every harness that takes
// an `--engine=` flag. The flag names the two engines a user picks
// between: `perstep`, the reference, and `threaded`, the default.
// DecodeMode::kPredecode stays a library mode: the threaded engine's
// traced and protected-memory loop, which benches and tests name
// directly.
//
// The threaded engine itself lives in dispatch.cpp: Cpu::run_threaded
// (the chunk runner with block-head lookup and per-instruction
// fallback) and Cpu::run_fused_block (the computed-goto superblock
// dispatcher that chains from block to block across their closing
// branches; its straight-line handlers are the instruction bodies of
// ops.inc, the same ones Cpu::exec compiles).
#pragma once

#include <string_view>

#include "armvm/cpu.h"

namespace eccm0::armvm {

/// Engine spelling used by every `--engine=` flag.
inline constexpr const char* kEngineFlagValues = "perstep|threaded";

/// Map an `--engine=` value to a DecodeMode. Throws
/// std::invalid_argument on anything but perstep|threaded.
Cpu::DecodeMode decode_mode_from_name(std::string_view name);

/// Name of a DecodeMode for reports and JSON rows ("perstep",
/// "predecode" or "threaded").
const char* decode_mode_name(Cpu::DecodeMode mode);

}  // namespace eccm0::armvm
