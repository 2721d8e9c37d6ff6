#include "edb/code_codec.h"

#include <cstring>

namespace educe::edb {

namespace {

using wam::Opcode;

/// What the 64-bit operand slot of a stored instruction holds.
enum class OperandKind : uint8_t { kNone, kSymbol, kBuiltinSymbol, kImm };

OperandKind OperandOf(Opcode op) {
  switch (op) {
    case Opcode::kGetConstant:
    case Opcode::kGetStructure:
    case Opcode::kUnifyConstant:
    case Opcode::kPutConstant:
    case Opcode::kPutStructure:
    case Opcode::kCall:
    case Opcode::kExecute:
      return OperandKind::kSymbol;
    case Opcode::kBuiltin:
      return OperandKind::kBuiltinSymbol;
    case Opcode::kGetInteger:
    case Opcode::kGetFloat:
    case Opcode::kUnifyInteger:
    case Opcode::kUnifyFloat:
    case Opcode::kPutInteger:
    case Opcode::kPutFloat:
      return OperandKind::kImm;
    case Opcode::kGetVariableX:
    case Opcode::kGetVariableY:
    case Opcode::kGetValueX:
    case Opcode::kGetValueY:
    case Opcode::kGetList:
    case Opcode::kUnifyVariableX:
    case Opcode::kUnifyVariableY:
    case Opcode::kUnifyValueX:
    case Opcode::kUnifyValueY:
    case Opcode::kUnifyVoid:
    case Opcode::kPutVariableX:
    case Opcode::kPutVariableY:
    case Opcode::kPutValueX:
    case Opcode::kPutValueY:
    case Opcode::kPutList:
    case Opcode::kAllocate:
    case Opcode::kDeallocate:
    case Opcode::kProceed:
    case Opcode::kGetLevel:
    case Opcode::kCut:
    case Opcode::kFail:
      return OperandKind::kNone;
    default:
      // Control/indexing opcodes: never stored.
      return OperandKind::kBuiltinSymbol;  // unreachable; guarded by caller
  }
}

bool IsStorable(Opcode op) {
  // Stored clause code is pre-link: fusion happens in LinkProcedure, so a
  // fused opcode in a payload is corruption, same as linker control code.
  if (wam::IsFusedOp(op)) return false;
  switch (op) {
    case Opcode::kTryMeElse:
    case Opcode::kRetryMeElse:
    case Opcode::kTrustMe:
    case Opcode::kTry:
    case Opcode::kRetry:
    case Opcode::kTrust:
    case Opcode::kSwitchOnTerm:
    case Opcode::kSwitchOnConstant:
    case Opcode::kSwitchOnInteger:
    case Opcode::kSwitchOnStructure:
    case Opcode::kJump:
    case Opcode::kHalt:
      return false;
    default:
      return true;
  }
}

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }
void PutU16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  base::Result<T> Get() {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return base::Status::Corruption("short stored code");
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  base::Result<std::string_view> GetBytes(size_t n) {
    if (pos_ + n > bytes_.size()) {
      return base::Status::Corruption("short stored code");
    }
    std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

base::Result<uint64_t> CodeCodec::RelativeSymbol(dict::SymbolId id) {
  if (!dictionary_->IsLive(id)) {
    return base::Status::Internal("dead symbol in clause code");
  }
  return external_->Ensure(dictionary_->NameOf(id), dictionary_->ArityOf(id));
}

base::Result<dict::Dictionary::ExternalEntry> CodeCodec::AbsoluteSymbol(
    uint64_t hash) {
  if (auto entry = dictionary_->FindExternal(hash)) return *entry;
  // First sight of this address since the symbol was interned (or since
  // dictionary GC swept it): the name round trip, once.
  EDUCE_ASSIGN_OR_RETURN(auto named, external_->Resolve(hash));
  EDUCE_ASSIGN_OR_RETURN(dict::SymbolId id,
                         dictionary_->Intern(named.first, named.second));
  dictionary_->MarkExternal(id, hash);
  return dict::Dictionary::ExternalEntry{id, named.second};
}

base::Result<std::string> CodeCodec::EncodeClause(const wam::ClauseCode& code) {
  std::string out;
  PutU32(&out, code.num_permanent);
  PutU8(&out, code.needs_environment ? 1 : 0);
  PutU8(&out, static_cast<uint8_t>(code.key.type));
  // The index key's value: symbol keys become relative.
  uint64_t key_value = code.key.value;
  if (code.key.type == wam::IndexKey::Type::kAtom ||
      code.key.type == wam::IndexKey::Type::kStruct) {
    EDUCE_ASSIGN_OR_RETURN(
        key_value,
        RelativeSymbol(static_cast<dict::SymbolId>(code.key.value)));
  }
  PutU64(&out, key_value);
  PutU32(&out, static_cast<uint32_t>(code.code.size()));

  for (const wam::Instruction& ins : code.code) {
    if (!IsStorable(ins.op)) {
      return base::Status::Internal(
          "control opcode in clause code (linker output is not storable)");
    }
    PutU8(&out, static_cast<uint8_t>(ins.op));
    PutU8(&out, ins.a);
    PutU16(&out, ins.b);
    switch (OperandOf(ins.op)) {
      case OperandKind::kNone:
        PutU64(&out, 0);
        break;
      case OperandKind::kSymbol: {
        EDUCE_ASSIGN_OR_RETURN(uint64_t hash, RelativeSymbol(ins.c));
        PutU64(&out, hash);
        break;
      }
      case OperandKind::kBuiltinSymbol: {
        // Builtin ids are registration-order local; store name/arity.
        EDUCE_ASSIGN_OR_RETURN(
            uint64_t hash,
            external_->Ensure(builtins_->name(ins.c), builtins_->arity(ins.c)));
        PutU64(&out, hash);
        break;
      }
      case OperandKind::kImm:
        PutU64(&out, ins.imm);
        break;
    }
  }
  return out;
}

base::Result<wam::ClauseCode> CodeCodec::DecodeClause(std::string_view bytes) {
  ByteReader reader(bytes);
  wam::ClauseCode code;
  EDUCE_ASSIGN_OR_RETURN(code.num_permanent, reader.Get<uint32_t>());
  EDUCE_ASSIGN_OR_RETURN(uint8_t env, reader.Get<uint8_t>());
  code.needs_environment = env != 0;
  EDUCE_ASSIGN_OR_RETURN(uint8_t key_type, reader.Get<uint8_t>());
  code.key.type = static_cast<wam::IndexKey::Type>(key_type);
  EDUCE_ASSIGN_OR_RETURN(uint64_t key_value, reader.Get<uint64_t>());
  if (code.key.type == wam::IndexKey::Type::kAtom ||
      code.key.type == wam::IndexKey::Type::kStruct) {
    EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(key_value));
    code.key.value = entry.id;
  } else {
    code.key.value = key_value;
  }
  EDUCE_ASSIGN_OR_RETURN(uint32_t count, reader.Get<uint32_t>());
  // Validate the instruction count against the actual byte length before
  // reserving anything: a corrupted count must not drive allocation.
  constexpr size_t kInstructionBytes = 1 + 1 + 2 + 8;
  if (reader.remaining() != count * kInstructionBytes) {
    return base::Status::Corruption("stored code length mismatch");
  }

  code.code.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    wam::Instruction ins;
    EDUCE_ASSIGN_OR_RETURN(uint8_t op, reader.Get<uint8_t>());
    if (op >= wam::kOpcodeCount) {
      return base::Status::Corruption("bad opcode in stored code");
    }
    ins.op = static_cast<Opcode>(op);
    EDUCE_ASSIGN_OR_RETURN(ins.a, reader.Get<uint8_t>());
    EDUCE_ASSIGN_OR_RETURN(ins.b, reader.Get<uint16_t>());
    EDUCE_ASSIGN_OR_RETURN(uint64_t operand, reader.Get<uint64_t>());
    if (!IsStorable(ins.op)) {
      return base::Status::Corruption("control opcode in stored code");
    }
    switch (OperandOf(ins.op)) {
      case OperandKind::kNone:
        break;
      case OperandKind::kSymbol: {
        EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(operand));
        ins.c = entry.id;
        break;
      }
      case OperandKind::kBuiltinSymbol: {
        EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(operand));
        auto builtin = builtins_->Find(entry.id);
        if (!builtin) {
          return base::Status::Corruption(
              "stored code names unknown builtin " +
              std::string(dictionary_->NameOf(entry.id)));
        }
        ins.c = *builtin;
        break;
      }
      case OperandKind::kImm:
        ins.imm = operand;
        break;
    }
    code.code.push_back(ins);
  }
  return code;
}

// --- ground term codec -------------------------------------------------------

namespace {
enum class TermTag : uint8_t {
  kAtom = 0,
  kInt = 1,
  kFloat = 2,
  kStruct = 3,
  kVar = 4,
};
}  // namespace

base::Status CodeCodec::EncodeTermInto(const term::Ast& t, std::string* out) {
  switch (t.kind) {
    case term::Ast::Kind::kVar:
      return base::Status::InvalidArgument(
          "facts stored in the EDB must be ground");
    case term::Ast::Kind::kAtom: {
      PutU8(out, static_cast<uint8_t>(TermTag::kAtom));
      EDUCE_ASSIGN_OR_RETURN(uint64_t hash, RelativeSymbol(t.functor));
      PutU64(out, hash);
      return base::Status::OK();
    }
    case term::Ast::Kind::kInt:
      PutU8(out, static_cast<uint8_t>(TermTag::kInt));
      PutU64(out, static_cast<uint64_t>(t.int_value));
      return base::Status::OK();
    case term::Ast::Kind::kFloat: {
      PutU8(out, static_cast<uint8_t>(TermTag::kFloat));
      uint64_t bits;
      std::memcpy(&bits, &t.float_value, sizeof(bits));
      PutU64(out, bits);
      return base::Status::OK();
    }
    case term::Ast::Kind::kStruct: {
      PutU8(out, static_cast<uint8_t>(TermTag::kStruct));
      EDUCE_ASSIGN_OR_RETURN(uint64_t hash, RelativeSymbol(t.functor));
      PutU64(out, hash);
      for (const auto& arg : t.args) {
        EDUCE_RETURN_IF_ERROR(EncodeTermInto(*arg, out));
      }
      return base::Status::OK();
    }
  }
  return base::Status::Internal("bad term kind");
}

base::Result<std::string> CodeCodec::EncodeGroundTerm(const term::Ast& t) {
  std::string out;
  EDUCE_RETURN_IF_ERROR(EncodeTermInto(t, &out));
  return out;
}

base::Result<term::AstPtr> CodeCodec::DecodeTermFrom(std::string_view bytes,
                                                     size_t* pos) {
  if (*pos >= bytes.size()) {
    return base::Status::Corruption("short stored term");
  }
  const TermTag tag = static_cast<TermTag>(bytes[*pos]);
  *pos += 1;
  auto get_u64 = [&]() -> base::Result<uint64_t> {
    if (*pos + 8 > bytes.size()) {
      return base::Status::Corruption("short stored term");
    }
    uint64_t v;
    std::memcpy(&v, bytes.data() + *pos, 8);
    *pos += 8;
    return v;
  };
  switch (tag) {
    case TermTag::kAtom: {
      EDUCE_ASSIGN_OR_RETURN(uint64_t hash, get_u64());
      EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(hash));
      return term::MakeAtom(entry.id);
    }
    case TermTag::kInt: {
      EDUCE_ASSIGN_OR_RETURN(uint64_t v, get_u64());
      return term::MakeInt(static_cast<int64_t>(v));
    }
    case TermTag::kFloat: {
      EDUCE_ASSIGN_OR_RETURN(uint64_t bits, get_u64());
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return term::MakeFloat(d);
    }
    case TermTag::kStruct: {
      EDUCE_ASSIGN_OR_RETURN(uint64_t hash, get_u64());
      EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(hash));
      std::vector<term::AstPtr> args;
      args.reserve(entry.arity);
      for (uint32_t i = 0; i < entry.arity; ++i) {
        EDUCE_ASSIGN_OR_RETURN(term::AstPtr arg, DecodeTermFrom(bytes, pos));
        args.push_back(std::move(arg));
      }
      return term::MakeStruct(entry.id, std::move(args));
    }
    case TermTag::kVar:
      return base::Status::Corruption("variable in stored ground term");
  }
  return base::Status::Corruption("bad stored term tag");
}

base::Result<term::Cell> CodeCodec::DecodeCellFrom(std::string_view bytes,
                                                   size_t* pos,
                                                   wam::Machine* machine) {
  // Every stored cell is one tag byte plus a u64; a compound's arguments
  // follow its functor cell.
  if (*pos + 9 > bytes.size()) {
    return base::Status::Corruption("short stored term");
  }
  const TermTag tag = static_cast<TermTag>(bytes[*pos]);
  uint64_t value;
  std::memcpy(&value, bytes.data() + *pos + 1, 8);
  *pos += 9;
  switch (tag) {
    case TermTag::kAtom: {
      EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(value));
      return term::Cell::Con(entry.id);
    }
    case TermTag::kInt:
      return term::Cell::Int(static_cast<int64_t>(value));
    case TermTag::kFloat:
      return term::Cell::FltFromBits(value);
    case TermTag::kStruct: {
      EDUCE_ASSIGN_OR_RETURN(auto entry, AbsoluteSymbol(value));
      if (entry.arity == 0) return term::Cell::Con(entry.id);
      // Reserve the term's cells first and fill them as the arguments
      // decode: nested compounds land above it, as ImportAst builds them.
      const bool list = entry.id == machine->dot_symbol() && entry.arity == 2;
      uint64_t arg = machine->AllocateHeap(list ? 2 : entry.arity + 1);
      const term::Cell cell =
          list ? term::Cell::Lis(arg) : term::Cell::Str(arg);
      if (!list) machine->SetHeapAt(arg++, term::Cell::Fun(entry.id));
      for (uint32_t i = 0; i < entry.arity; ++i, ++arg) {
        EDUCE_ASSIGN_OR_RETURN(term::Cell c,
                               DecodeCellFrom(bytes, pos, machine));
        machine->SetHeapAt(arg, c);
      }
      return cell;
    }
    case TermTag::kVar:
      return base::Status::Corruption("variable in stored ground term");
  }
  return base::Status::Corruption("bad stored term tag");
}

base::Result<term::Cell> CodeCodec::DecodeOntoHeap(std::string_view bytes,
                                                   wam::Machine* machine) {
  size_t pos = 0;
  EDUCE_ASSIGN_OR_RETURN(term::Cell cell,
                         DecodeCellFrom(bytes, &pos, machine));
  if (pos != bytes.size()) {
    return base::Status::Corruption("trailing bytes in stored term");
  }
  return cell;
}

size_t CodeCodec::PeekArgs(std::string_view bytes, size_t count,
                           StoredArg* out) {
  // A compound is its tag, its functor hash, then its arguments in order;
  // every atomic argument is one tag byte plus a u64.
  constexpr size_t kCell = 1 + 8;
  if (bytes.size() < kCell ||
      static_cast<TermTag>(bytes[0]) != TermTag::kStruct) {
    return 0;
  }
  size_t pos = kCell;
  size_t n = 0;
  while (n < count && pos + kCell <= bytes.size()) {
    StoredArg arg;
    switch (static_cast<TermTag>(bytes[pos])) {
      case TermTag::kAtom: arg.kind = StoredArg::Kind::kAtom; break;
      case TermTag::kInt: arg.kind = StoredArg::Kind::kInt; break;
      case TermTag::kFloat: arg.kind = StoredArg::Kind::kFloat; break;
      case TermTag::kStruct: arg.kind = StoredArg::Kind::kCompound; break;
      default: return n;
    }
    std::memcpy(&arg.value, bytes.data() + pos + 1, 8);
    pos += kCell;
    out[n++] = arg;
    if (arg.kind == StoredArg::Kind::kCompound) break;
  }
  return n;
}

base::Result<term::AstPtr> CodeCodec::DecodeTerm(std::string_view bytes) {
  size_t pos = 0;
  EDUCE_ASSIGN_OR_RETURN(term::AstPtr t, DecodeTermFrom(bytes, &pos));
  if (pos != bytes.size()) {
    return base::Status::Corruption("trailing bytes in stored term");
  }
  return t;
}

}  // namespace educe::edb
