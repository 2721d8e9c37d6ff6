#ifndef EDUCE_EDB_CODE_CODEC_H_
#define EDUCE_EDB_CODE_CODEC_H_

#include <string>
#include <string_view>

#include "base/result.h"
#include "dict/dictionary.h"
#include "edb/external_dictionary.h"
#include "term/ast.h"
#include "term/cell.h"
#include "wam/code.h"
#include "wam/machine.h"
#include "wam/program.h"

namespace educe::edb {

/// One top-level argument of a stored ground term, read in place by
/// CodeCodec::PeekArgs without resolving any symbol.
struct StoredArg {
  enum class Kind : uint8_t { kAtom, kInt, kFloat, kCompound };
  Kind kind = Kind::kCompound;
  /// Atom: its external hash. Int: the stored 64-bit value. Float: the
  /// stored double's bits. Compound: its functor's external hash.
  uint64_t value = 0;
};

/// Serializes clause code for EDB storage and back (paper §3.1/§4): the
/// stored form is *relative* — every symbol operand (atoms, functors,
/// called predicates, builtins) is replaced by its external-dictionary
/// hash, the "associative address". Decoding is the dynamic loader's
/// address-resolution step. The address is the internal dictionary's own
/// hash, so each one is first probed for in the internal dictionary
/// (Dictionary::FindExternal); only a symbol not yet checked against
/// the external dictionary is resolved through it, interned and marked.
///
/// Thread safety: the codec keeps no per-call state — it only forwards
/// to the internally latched dictionaries — so one shared instance
/// serves concurrent worker sessions.
class CodeCodec {
 public:
  /// `dictionary`, `external` and `builtins` must outlive the codec.
  CodeCodec(dict::Dictionary* dictionary, ExternalDictionary* external,
            const wam::BuiltinTable* builtins)
      : dictionary_(dictionary), external_(external), builtins_(builtins) {}

  /// Clause code -> relative bytes. Ensures external-dictionary entries
  /// for every referenced symbol. Fails on control opcodes (kTry*,
  /// kSwitch*...), which are never stored — they are loader-added.
  base::Result<std::string> EncodeClause(const wam::ClauseCode& code);

  /// Relative bytes -> executable clause code (absolute internal ids).
  base::Result<wam::ClauseCode> DecodeClause(std::string_view bytes);

  /// Ground term -> relative bytes (fact storage). Fails on variables.
  base::Result<std::string> EncodeGroundTerm(const term::Ast& t);

  /// Relative bytes -> AST (interning symbols into the internal
  /// dictionary). The bottom-up evaluator's bulk feed; the WAM's fact
  /// paths use DecodeOntoHeap.
  base::Result<term::AstPtr> DecodeTerm(std::string_view bytes);

  /// Relative bytes -> the same term built on `machine`'s heap, with no
  /// intermediate AST. As in Machine::ImportAst, a '.'/2 compound becomes
  /// a list cell, so it unifies with [H|T].
  base::Result<term::Cell> DecodeOntoHeap(std::string_view bytes,
                                          wam::Machine* machine);

  /// Reads up to `count` top-level arguments of the stored term `bytes`
  /// into `out`, in place: the fact-row side of pre-unification, which
  /// runs on relative data before anything is decoded (paper §4). Stops
  /// after the first compound argument, whose extent depends on its
  /// functor's arity — known only to the external dictionary. Returns the
  /// number of arguments read; fewer than `count` also on an atomic term
  /// or malformed bytes (decoding reports those).
  static size_t PeekArgs(std::string_view bytes, size_t count,
                         StoredArg* out);

 private:
  base::Result<uint64_t> RelativeSymbol(dict::SymbolId id);
  /// Associative address -> live internal symbol and its arity.
  base::Result<dict::Dictionary::ExternalEntry> AbsoluteSymbol(uint64_t hash);

  base::Status EncodeTermInto(const term::Ast& t, std::string* out);
  base::Result<term::AstPtr> DecodeTermFrom(std::string_view bytes,
                                            size_t* pos);
  base::Result<term::Cell> DecodeCellFrom(std::string_view bytes,
                                          size_t* pos,
                                          wam::Machine* machine);

  dict::Dictionary* dictionary_;
  ExternalDictionary* external_;
  const wam::BuiltinTable* builtins_;
};

}  // namespace educe::edb

#endif  // EDUCE_EDB_CODE_CODEC_H_
