// lexer.hpp — hand-written scanner for the concrete syntax of P.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/token.hpp"

namespace proteus::lang {

/// Scans a whole source text into tokens (ending with a kEnd token).
/// Throws SyntaxError on malformed input. Comments run from `//` to end
/// of line.
[[nodiscard]] std::vector<Token> lex(std::string_view source);

// --- number literals -----------------------------------------------------------
//
// The lexer's number rules, shared with the signature-driven literal codec
// (kernels/codec.hpp) so that both read a literal the same way by
// construction.

/// Extent of the number token that starts `s` (which must begin with a
/// digit): digits, then ".digits" (a '.' not followed by a digit ends the
/// token, so "1..n" is 1 then ".."), then an exponent "e[+-]digits" (an
/// 'e' not followed by digits begins an identifier instead). The token is
/// a real literal when it has a fraction or an exponent.
struct NumberExtent {
  std::size_t length = 0;
  bool is_real = false;
};
[[nodiscard]] NumberExtent scan_number(std::string_view s);

/// Value of an integer literal token; nullopt when it does not fit Int.
[[nodiscard]] std::optional<std::int64_t> int_literal_value(
    std::string_view token);

/// Value of a real literal token, correctly rounded. Subnormal values are
/// kept; nullopt when the value overflows, or is nonzero and underflows
/// to zero.
[[nodiscard]] std::optional<double> real_literal_value(std::string_view token);

}  // namespace proteus::lang
