#include "armvm/superinst.h"

namespace eccm0::armvm {

using costmodel::InstrClass;

bool fusable(const Instr& ins, unsigned halfwords) {
  if (halfwords != 1) return false;  // a BL pair can only close a block
  switch (ins.op) {
    // Control flow: one entry, one exit per block, so branches never sit
    // inside a body (B/BCond/BL/BX may close one: see closes_block).
    case Op::kBCond:
    case Op::kB:
    case Op::kBl:
    case Op::kBx:
    case Op::kBlx:
    case Op::kBkpt:
      return false;
    // Hi-register forms may write PC (branch) or read the raw PC
    // register, which is stale inside a fused block. rm = PC reads the
    // architectural pc+4, which is a per-slot constant and fuses fine.
    case Op::kAddHi:
    case Op::kMovHi:
      return ins.rd != kPC;
    case Op::kCmpHi:
      return ins.rd != kPC && ins.rm != kPC;
    // POP {... pc} is a return.
    case Op::kPop:
      return (ins.reg_list & 0x100) == 0;
    default:
      return true;
  }
}

bool closes_block(const Instr& ins) {
  switch (ins.op) {
    case Op::kB:
    case Op::kBCond:
    case Op::kBl:
      return true;
    case Op::kBx:  // BX PC would read the raw PC register
      return ins.rm != kPC;
    default:
      return false;
  }
}

namespace {

/// Byte address of a B/BCond/BL's static target, or -1 when it lies
/// outside the `n`-halfword image.
std::int64_t static_target(const Instr& ins, std::size_t idx, std::size_t n) {
  const std::int64_t target = static_cast<std::int64_t>(2 * idx) + 4 + ins.imm;
  if (target < 0 || target % 2 != 0 ||
      static_cast<std::uint64_t>(target / 2) >= n) {
    return -1;
  }
  return target;
}

}  // namespace

ThreadedImage build_threaded_image(
    const std::vector<std::uint16_t>& code,
    const std::vector<PredecodedSlot>& cache,
    const std::map<std::string, std::uint32_t>& symbols) {
  (void)code;
  const std::size_t n = cache.size();
  ThreadedImage img;
  img.block_at.assign(n, -1);

  // Split points: any halfword execution can branch to. Labels cover the
  // loop heads and call entries the assembler knows about; static branch
  // targets cover everything B/BCond/BL can reach. BX/BLX targets are
  // dynamic, but they can only land on a label, a BL's return site
  // (which starts a block, because the BL closes the one before it) or
  // a computed address a branch already points at in this ISA's
  // assembled images — and an interior entry is still correct, just
  // unfused (block handlers only fire at heads).
  std::vector<std::uint8_t> split(n, 0);
  for (const auto& [name, addr] : symbols) {
    const std::size_t idx = addr / 2;
    if (idx < n) split[idx] = 1;
  }
  for (std::size_t idx = 0; idx < n;) {
    const PredecodedSlot& s = cache[idx];
    if (!s.valid) {
      ++idx;
      continue;
    }
    ++img.valid_slots;
    if (s.ins.op == Op::kB || s.ins.op == Op::kBCond || s.ins.op == Op::kBl) {
      const std::int64_t target = static_target(s.ins, idx, n);
      if (target >= 0) split[static_cast<std::size_t>(target / 2)] = 1;
    }
    idx += s.halfwords;
  }

  std::size_t idx = 0;
  while (idx < n) {
    if (!cache[idx].valid) {
      ++idx;
      continue;
    }
    // Maximal fusable run: extend while the next slot fuses and is not a
    // branch target / label (the run head itself may be one — that is
    // how a fused loop body gets re-entered every iteration).
    std::size_t j = idx;
    while (j < n && cache[j].valid && cache[j].halfwords == 1 &&
           fusable(cache[j].ins, 1) && (j == idx || !split[j])) {
      ++j;
    }
    // A branch right after the run (or at the head itself) closes it,
    // unless it is a split point of its own or its static target lies
    // outside the image.
    const PredecodedSlot* closer = nullptr;
    std::int64_t target = -1;
    if (j < n && cache[j].valid && (j == idx || !split[j]) &&
        closes_block(cache[j].ins)) {
      target = cache[j].ins.op == Op::kBx ? -1
                                          : static_target(cache[j].ins, j, n);
      if (cache[j].ins.op == Op::kBx || target >= 0) closer = &cache[j];
    }
    const auto body = static_cast<std::uint32_t>(j - idx);
    if (closer == nullptr && body < kMinFuseLength) {
      idx = j > idx ? j : idx + cache[idx].halfwords;
      continue;
    }
    SuperBlock b;
    b.head_idx = static_cast<std::uint32_t>(idx);
    b.count = body + (closer != nullptr ? 1 : 0);
    const std::size_t end = closer != nullptr ? j + closer->halfwords : j;
    b.end_pc = static_cast<std::uint32_t>(2 * end);
    if (target >= 0) b.taken_pc = static_cast<std::uint32_t>(target);
    std::uint64_t by_class[static_cast<int>(InstrClass::kCount)] = {};
    b.code.reserve(body + 1);
    for (std::size_t k = idx; k < idx + b.count; ++k) {
      FusedInstr f;
      f.ins = cache[k].ins;
      f.pc4 = static_cast<std::uint32_t>(2 * k + 4);
      f.num_costs =
          static_cast<std::uint8_t>(static_costs(f.ins.op, f.ins, f.costs));
      for (unsigned c = 0; c < f.num_costs; ++c) {
        by_class[static_cast<int>(f.costs[c].cls)] += f.costs[c].cycles;
        b.cycles += f.costs[c].cycles;
      }
      b.code.push_back(f);
    }
    if (closer == nullptr) {
      FusedInstr endf{};
      endf.ins.op = static_cast<Op>(kEndOfBlockToken);
      b.code.push_back(endf);
    } else if (closer->ins.op == Op::kBCond) {
      b.code.back().ins.op = static_cast<Op>(bcond_token(closer->ins.cond));
    }
    for (int c = 0; c < static_cast<int>(InstrClass::kCount); ++c) {
      if (by_class[c] != 0) {
        b.hist.emplace_back(static_cast<InstrClass>(c), by_class[c]);
      }
    }
    img.block_at[idx] = static_cast<std::int32_t>(img.blocks.size());
    img.fused_slots += b.count;
    img.blocks.push_back(std::move(b));
    idx = end;
  }

  // Successors, now that every head is known.
  for (SuperBlock& b : img.blocks) {
    if (b.end_pc / 2 < n) b.next_fall = img.block_at[b.end_pc / 2];
    const auto exit = static_cast<std::uint8_t>(b.code.back().ins.op);
    if (exit != kEndOfBlockToken &&
        exit != static_cast<std::uint8_t>(Op::kBx)) {
      b.next_taken = img.block_at[b.taken_pc / 2];
    }
  }
  return img;
}

bool is_block_interior(const ThreadedImage& image, std::size_t idx) {
  for (const SuperBlock& b : image.blocks) {
    if (idx > b.head_idx && 2 * idx < b.end_pc) return true;
  }
  return false;
}

}  // namespace eccm0::armvm
