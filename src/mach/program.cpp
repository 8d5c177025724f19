#include "mach/program.hpp"

#include <bit>
#include <cstring>

#include "support/strings.hpp"

namespace vc::mach {

std::string MLoc::to_string() const {
  switch (kind) {
    case Kind::Gpr: return "r" + std::to_string(index);
    case Kind::Fpr: return "f" + std::to_string(index);
    case Kind::StackSlot:
      return "@sp" + std::string(offset >= 0 ? "+" : "") +
             std::to_string(offset);
  }
  throw InternalError("bad MLoc kind");
}

DataLayout::DataLayout(const minic::Program& program)
    : decls_(program.globals) {
  std::uint32_t off = 0;
  for (const auto& g : decls_) {
    const std::uint32_t esz = g.type == minic::Type::F64 ? 8 : 4;
    // Align to the element size.
    off = (off + esz - 1) / esz * esz;
    globals_[g.name] =
        GlobalInfo{off, esz, static_cast<std::uint32_t>(g.count)};
    off += esz * static_cast<std::uint32_t>(g.count);
  }
  globals_size_ = (off + 7) / 8 * 8;  // pool is 8-byte aligned
}

std::uint32_t DataLayout::offset_of(const std::string& sym,
                                    std::int32_t elem) const {
  auto it = globals_.find(sym);
  check(it != globals_.end(),
        [&] { return "undefined global symbol '" + sym + "'"; });
  check(elem >= 0 && static_cast<std::uint32_t>(elem) < it->second.count,
        [&] { return "global element out of range for '" + sym + "'"; });
  return it->second.offset +
         it->second.elem_size * static_cast<std::uint32_t>(elem);
}

std::uint32_t DataLayout::elem_size(const std::string& sym) const {
  auto it = globals_.find(sym);
  check(it != globals_.end(),
        [&] { return "undefined global symbol '" + sym + "'"; });
  return it->second.elem_size;
}

std::uint32_t DataLayout::add_const(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  auto it = pool_index_.find(bits);
  if (it != pool_index_.end()) return it->second * 8;
  const auto index = static_cast<std::uint32_t>(pool_.size());
  pool_.push_back(value);
  pool_index_[bits] = index;
  return index * 8;
}

namespace {

void put_u32(std::vector<std::uint8_t>& bytes, std::uint32_t off,
             std::uint32_t v) {
  bytes[off + 0] = static_cast<std::uint8_t>(v >> 24);
  bytes[off + 1] = static_cast<std::uint8_t>(v >> 16);
  bytes[off + 2] = static_cast<std::uint8_t>(v >> 8);
  bytes[off + 3] = static_cast<std::uint8_t>(v);
}

void put_f64(std::vector<std::uint8_t>& bytes, std::uint32_t off, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u32(bytes, off, static_cast<std::uint32_t>(bits >> 32));
  put_u32(bytes, off + 4, static_cast<std::uint32_t>(bits));
}

}  // namespace

std::map<std::string, std::uint32_t> DataLayout::global_offsets() const {
  std::map<std::string, std::uint32_t> out;
  for (const auto& [name, info] : globals_) out[name] = info.offset;
  return out;
}

std::vector<std::uint8_t> DataLayout::initial_bytes() const {
  std::vector<std::uint8_t> bytes(total_size(), 0);
  for (const auto& g : decls_) {
    const GlobalInfo& info = globals_.at(g.name);
    for (std::size_t i = 0; i < g.init.size(); ++i) {
      const std::uint32_t off =
          info.offset + info.elem_size * static_cast<std::uint32_t>(i);
      if (g.type == minic::Type::F64) {
        put_f64(bytes, off, g.init[i]);
      } else {
        put_u32(bytes, off,
                static_cast<std::uint32_t>(static_cast<std::int32_t>(g.init[i])));
      }
    }
  }
  for (std::size_t i = 0; i < pool_.size(); ++i)
    put_f64(bytes, pool_base() + static_cast<std::uint32_t>(i) * 8, pool_[i]);
  return bytes;
}

std::uint32_t Image::code_size_of(const std::string& fn) const {
  return fn_end.at(fn) - fn_entry.at(fn);
}

MInstr Image::fetch(std::uint32_t addr) const {
  check(addr >= kCodeBase && addr < kCodeBase + code_size_bytes() &&
            addr % 4 == 0,
        [&] {
          return "instruction fetch outside code segment: " + hex32(addr);
        });
  return decode(words[(addr - kCodeBase) / 4]);
}

std::string Image::disassemble() const {
  std::string out;
  // Invert the entry map for labels.
  std::map<std::uint32_t, std::string> labels;
  for (const auto& [name, addr] : fn_entry) labels[addr] = name;
  std::map<std::uint32_t, const AnnotEntry*> annots;
  for (const auto& a : annotations) annots[a.addr] = &a;

  for (std::size_t i = 0; i < words.size(); ++i) {
    const std::uint32_t addr = kCodeBase + static_cast<std::uint32_t>(i) * 4;
    auto lit = labels.find(addr);
    if (lit != labels.end()) out += lit->second + ":\n";
    auto ait = annots.find(addr);
    if (ait != annots.end()) {
      out += "            # annotation: " + ait->second->format;
      for (const auto& loc : ait->second->operands)
        out += " " + loc.to_string();
      out += "\n";
    }
    out += "  " + hex32(addr) + ":  " + format_instr(decode(words[i]), addr) +
           "\n";
  }
  return out;
}

Image link(const std::vector<MachineFunction>& fns, const DataLayout& layout) {
  check(layout.total_size() <= 32767,
        "data segment exceeds 16-bit displacement range");

  Image image;
  image.data_init = layout.initial_bytes();

  // Assign function base addresses.
  std::uint32_t addr = Image::kCodeBase;
  for (const auto& fn : fns) {
    image.fn_entry[fn.name] = addr;
    addr += static_cast<std::uint32_t>(fn.code.size()) * 4;
    image.fn_end[fn.name] = addr;
  }

  for (const auto& fn : fns) {
    const std::uint32_t base = image.fn_entry.at(fn.name);
    std::vector<MInstr> code = fn.code;
    for (const Reloc& r : fn.relocs) {
      check(r.instr_index < code.size(), "reloc index out of range");
      std::uint32_t off;
      if (r.sym == "$cpool")
        off = layout.pool_base() + static_cast<std::uint32_t>(r.addend);
      else
        off = layout.offset_of(r.sym, 0) + static_cast<std::uint32_t>(r.addend);
      switch (r.kind) {
        case RelocKind::DataDisp:
          check(off <= 32767, "data displacement overflow");
          code[r.instr_index].imm = static_cast<std::int32_t>(off);
          break;
        case RelocKind::AbsHa: {
          const std::uint32_t addr = Image::kDataBase + off;
          code[r.instr_index].imm = static_cast<std::int32_t>(
              static_cast<std::int16_t>((addr + 0x8000) >> 16));
          break;
        }
        case RelocKind::AbsLo: {
          const std::uint32_t addr = Image::kDataBase + off;
          code[r.instr_index].imm = static_cast<std::int32_t>(
              static_cast<std::int16_t>(addr & 0xFFFF));
          break;
        }
        case RelocKind::AbsHi20: {
          const std::uint32_t addr = Image::kDataBase + off;
          code[r.instr_index].imm =
              static_cast<std::int32_t>((addr + 0x800) >> 12);
          break;
        }
        case RelocKind::AbsLo12: {
          const std::uint32_t addr = Image::kDataBase + off;
          // Sign-extended low 12 bits; the %hi part above compensates.
          std::int32_t lo = static_cast<std::int32_t>(addr & 0xFFF);
          if (lo >= 0x800) lo -= 0x1000;
          code[r.instr_index].imm = lo;
          break;
        }
      }
    }
    for (const MInstr& ins : code) image.words.push_back(encode(ins));
    for (const AnnotEntry& a : fn.annots) {
      AnnotEntry linked = a;
      linked.addr = base + a.addr * 4;  // instruction index -> address
      image.annotations.push_back(std::move(linked));
    }
  }

  // Global symbol addresses (for the harness and tests).
  for (const auto& [name, off] : layout.global_offsets())
    image.global_addr[name] = Image::kDataBase + off;
  return image;
}

}  // namespace vc::mach
