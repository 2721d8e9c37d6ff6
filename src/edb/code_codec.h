#ifndef EDUCE_EDB_CODE_CODEC_H_
#define EDUCE_EDB_CODE_CODEC_H_

#include <string>
#include <string_view>

#include "base/counter.h"
#include "base/result.h"
#include "dict/dictionary.h"
#include "edb/external_dictionary.h"
#include "term/ast.h"
#include "wam/code.h"
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
/// address-resolution step: each hash is resolved through the external
/// dictionary and re-interned into the (session-local) internal
/// dictionary, yielding code the emulator can run after linking.
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
  /// dictionary).
  base::Result<term::AstPtr> DecodeTerm(std::string_view bytes);

  /// Reads up to `count` top-level arguments of the stored term `bytes`
  /// into `out`, in place: the fact-row side of pre-unification, which
  /// runs on relative data before anything is decoded (paper §4). Stops
  /// after the first compound argument, whose extent depends on its
  /// functor's arity — known only to the external dictionary. Returns the
  /// number of arguments read; fewer than `count` also on an atomic term
  /// or malformed bytes (decoding reports those).
  static size_t PeekArgs(std::string_view bytes, size_t count,
                         StoredArg* out);

  /// Statistics for the compiler-split bench: time spent resolving
  /// associative addresses is measured around DecodeClause by callers;
  /// these count the volume.
  uint64_t symbols_resolved() const { return symbols_resolved_.load(); }

 private:
  base::Result<uint64_t> RelativeSymbol(dict::SymbolId id);
  base::Result<dict::SymbolId> AbsoluteSymbol(uint64_t hash);

  base::Status EncodeTermInto(const term::Ast& t, std::string* out);
  base::Result<term::AstPtr> DecodeTermFrom(std::string_view bytes,
                                            size_t* pos);

  dict::Dictionary* dictionary_;
  ExternalDictionary* external_;
  const wam::BuiltinTable* builtins_;
  base::RelaxedCounter symbols_resolved_;
};

}  // namespace educe::edb

#endif  // EDUCE_EDB_CODE_CODEC_H_
