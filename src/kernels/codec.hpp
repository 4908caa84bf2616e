// codec.hpp — the signature-driven literal codec: P literal text to and
// from the flat vector representation, with no boxed value in between.
//
// The static type drives both directions (in the daemon, a function's
// vm::Signature). Decoding keeps one builder per node of the type — the
// descriptor lengths of a seq node, one column per tuple slot, the value
// vector of a scalar node — and appends every element of the literal
// straight onto the builder of its type node, so the result is the
// Figure-1 layout of Section 4.1 (descriptor vectors over value vectors)
// and no per-element interpretation happens. Encoding walks the same
// descriptors over the value vectors and writes text straight from them.
//
// The fast grammar is the literal subset: integers and reals in the
// lexer's digit-led forms, each with an optional leading '-', `true`,
// `false`, `[..]`, `(..)` and whitespace. Everything else (ranges,
// arithmetic, ascriptions, grouping parentheses, identifiers, comments, a
// literal of another type, an out-of-range number) is left to the general
// evaluator: decode returns nullopt and the caller runs
// from_boxed(parse_value(text), type), which also produces the error text.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "kernels/vvalue.hpp"

namespace proteus::kernels {

/// Decodes `text`, a P literal of static type `type`, into the flat
/// representation. Equal to from_boxed(parse_value(text), type) wherever
/// that succeeds, except that an empty `[]` takes its element type from
/// `type` (the general evaluator rejects it as untyped). Returns nullopt
/// when `text` is outside the fast grammar or does not have type `type`.
///
/// The decoder recurses over `type`, never over the input, so its depth
/// is bounded by the signature: input nested deeper than the type is a
/// mismatch and returns nullopt.
///
/// Buffers are exact-size vl::Vecs allocated, after the whole literal has
/// been read, in from_boxed's order — outer descriptors before inner
/// levels, tuple slots left to right — so governor charges and injected
/// allocation faults land as they do on the boxed path.
[[nodiscard]] std::optional<VValue> decode(std::string_view text,
                                           const lang::TypePtr& type);

/// Appends the P literal text of `v`, whose static type is `type`, to
/// `out`: byte-identical to interp::to_text(to_boxed(v, type)), with
/// reals written as `std::ostream << double` does (6 significant digits).
void encode(const VValue& v, const lang::TypePtr& type, std::string& out);

}  // namespace proteus::kernels
