// SQL lexer: case-insensitive keywords, identifiers, integer/decimal and
// string literals, comparison/arithmetic punctuation.
#ifndef GSOPT_SQL_LEXER_H_
#define GSOPT_SQL_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"

namespace gsopt::sql {

enum class TokenKind {
  kIdent,
  kKeyword,
  kNumber,
  kString,
  kParam,  // $1-style prepared-statement parameter; `number` is the index
  kPunct,  // one of ( ) , . + - * / = < > <= >= <>
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // uppercased for keywords
  double number = 0;
  // Set for a digits-only number that fits an int64, whose exact value is
  // `integer` (`number` rounds past 2^53); larger ones lex as doubles.
  bool is_integer = false;
  int64_t integer = 0;
  int position = 0;  // byte offset, for error messages
};

StatusOr<std::vector<Token>> Lex(const std::string& input);

}  // namespace gsopt::sql

#endif  // GSOPT_SQL_LEXER_H_
