// Symbol-attributed profiler over the armvm's rich trace events.
//
// The paper's whole argument is an attribution claim — on the M0+ the
// 2-cycle loads/stores dominate, and the fixed-register LD multiplication
// wins by keeping the hottest product words out of memory. RunStats can
// only say how much a routine cost in aggregate; this sink says *where*
// the cycles, instructions and Table-3 energy went, per function and per
// call site, by following BL/BLX/BX retirement with a shadow call stack
// and naming frames through the assembler's `Program::symbols` map.
//
// Shadow-stack rules (documented in DESIGN.md):
//  - BL/BLX retire  -> push a frame for the branch target; the call
//    instruction's own cycles belong to the caller.
//  - an indirect transfer (BX, POP {..,pc}, MOV/ADD pc, ..) whose target
//    matches a frame's return address -> pop to and including that frame
//    (frames skipped over were tail-called and end here too).
//  - an indirect transfer onto a *label* address with no matching return
//    address -> tail call: the top frame is replaced, inheriting the
//    original return address.
//  - BKPT or a branch to the return sentinel ends the run: every open
//    frame closes, and the next event starts a fresh root activation
//    (persistent kernel machines re-enter `entry` once per call()).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "costmodel/energy.h"

namespace eccm0::profile {

class Profiler final : public armvm::TraceSink {
 public:
  /// Flat + inclusive attribution for one function (a BL/BLX target, a
  /// tail-call target, or the root entry point).
  struct FunctionStats {
    std::string name;
    std::uint32_t addr = 0;
    std::uint64_t calls = 0;
    std::uint64_t instructions = 0;  ///< retired while this fn was on top
    std::uint64_t self_cycles = 0;
    std::uint64_t inclusive_cycles = 0;
    costmodel::CycleHistogram self_hist;
    costmodel::CycleHistogram inclusive_hist;

    double self_energy_pj(const costmodel::InstructionEnergyTable& t =
                              costmodel::kM0PlusEnergy) const {
      return costmodel::energy_of(self_hist, t).energy_pj;
    }
    double inclusive_energy_pj(const costmodel::InstructionEnergyTable& t =
                                   costmodel::kM0PlusEnergy) const {
      return costmodel::energy_of(inclusive_hist, t).energy_pj;
    }
  };

  struct CallSite {
    std::uint32_t site_pc = 0;  ///< address of the BL/BLX (or tail branch)
    std::string caller;
    std::string callee;
    std::uint64_t count = 0;
  };

  /// One completed function activation on the simulated cycle clock —
  /// the unit of the Chrome-trace timeline export.
  struct Span {
    std::string name;
    std::uint64_t begin_cycle = 0;
    std::uint64_t end_cycle = 0;
    unsigned depth = 0;  ///< 0 = root
  };

  explicit Profiler(const armvm::Program& prog);

  void on_retire(const armvm::TraceEvent& ev) override;

  /// Close any still-open activations at the last seen cycle. Idempotent;
  /// the accessors below call it themselves.
  void finalize();

  /// Per-function attribution, hottest self-cycles first.
  std::vector<FunctionStats> functions();
  /// Per-call-site counts, most frequent first.
  std::vector<CallSite> call_sites();
  /// Completed activations in begin-cycle order.
  const std::vector<Span>& spans();
  /// Collapsed stacks ("root;callee" -> self cycles), flamegraph format.
  const std::map<std::string, std::uint64_t>& collapsed_stacks();

  /// Totals over every event seen — these match the Cpu's RunStats
  /// exactly (cycles, instructions) and its Table-3 energy report.
  std::uint64_t total_cycles() const { return total_cycles_; }
  std::uint64_t total_instructions() const { return total_instructions_; }
  double total_energy_pj(const costmodel::InstructionEnergyTable& t =
                             costmodel::kM0PlusEnergy) const {
    return costmodel::energy_of(total_hist_, t).energy_pj;
  }

 private:
  struct Frame {
    std::size_t fn = 0;
    std::uint32_t return_addr = 0;
    std::size_t span = 0;     ///< index into spans_
    bool recursive = false;   ///< same fn already deeper on the stack
  };

  std::size_t fn_index(std::uint32_t addr);
  std::string name_of(std::uint32_t addr) const;
  void push_frame(std::size_t fn, std::uint32_t return_addr,
                  std::uint64_t begin_cycle);
  void pop_frame(std::uint64_t end_cycle);
  void rebuild_signature();

  std::map<std::uint32_t, std::string> symbols_;  ///< addr -> label
  std::vector<FunctionStats> fns_;
  std::unordered_map<std::uint32_t, std::size_t> fn_by_addr_;
  /// (site PC, callee fn) -> (caller fn at call time, count).
  std::map<std::pair<std::uint32_t, std::size_t>,
           std::pair<std::size_t, std::uint64_t>>
      call_sites_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> collapsed_;
  std::string signature_;  ///< ';'-joined names of the current stack
  bool run_open_ = false;
  std::uint64_t last_cycle_ = 0;  ///< clock after the last seen event
  std::uint64_t total_cycles_ = 0;
  std::uint64_t total_instructions_ = 0;
  costmodel::CycleHistogram total_hist_;
};

}  // namespace eccm0::profile
