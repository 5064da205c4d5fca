#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <set>

namespace gsopt::sql {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string>* kw = new std::set<std::string>{
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",    "HAVING", "AS",
      "JOIN",   "LEFT",  "RIGHT", "FULL",  "INNER", "OUTER",  "ON",
      "AND",    "COUNT", "SUM",   "MIN",   "MAX",   "AVG",    "DISTINCT",
      "IS",     "NOT",   "NULL",  "ORDER", "ASC",   "DESC",
  };
  return *kw;
}

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

}  // namespace

StatusOr<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token t;
    t.position = static_cast<int>(i);
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '#') {
      size_t j = i;
      while (j < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[j])) ||
              input[j] == '_' || input[j] == '#')) {
        ++j;
      }
      std::string word = input.substr(i, j - i);
      std::string up = Upper(word);
      if (Keywords().count(up)) {
        t.kind = TokenKind::kKeyword;
        t.text = up;
      } else {
        t.kind = TokenKind::kIdent;
        t.text = word;
      }
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool has_dot = false;
      while (j < input.size() &&
             (std::isdigit(static_cast<unsigned char>(input[j])) ||
              (input[j] == '.' && !has_dot &&
               j + 1 < input.size() &&
               std::isdigit(static_cast<unsigned char>(input[j + 1]))))) {
        if (input[j] == '.') has_dot = true;
        ++j;
      }
      t.kind = TokenKind::kNumber;
      t.text = input.substr(i, j - i);
      // strtod, not stod: a literal past the double range lexes as inf
      // instead of throwing.
      t.number = std::strtod(t.text.c_str(), nullptr);
      if (!has_dot) {
        const char* end = t.text.data() + t.text.size();
        auto [ptr, ec] = std::from_chars(t.text.data(), end, t.integer);
        t.is_integer = ec == std::errc() && ptr == end;
      }
      i = j;
    } else if (c == '$') {
      size_t j = i + 1;
      while (j < input.size() &&
             std::isdigit(static_cast<unsigned char>(input[j]))) {
        ++j;
      }
      if (j == i + 1) {
        return Status::InvalidArgument("expected parameter index after '$' at " +
                                       std::to_string(i));
      }
      t.kind = TokenKind::kParam;
      t.text = input.substr(i, j - i);
      t.number = std::strtod(input.substr(i + 1, j - i - 1).c_str(), nullptr);
      i = j;
    } else if (c == '\'') {
      size_t j = i + 1;
      while (j < input.size() && input[j] != '\'') ++j;
      if (j >= input.size()) {
        return Status::InvalidArgument("unterminated string literal at " +
                                       std::to_string(i));
      }
      t.kind = TokenKind::kString;
      t.text = input.substr(i + 1, j - i - 1);
      i = j + 1;
    } else {
      t.kind = TokenKind::kPunct;
      if ((c == '<' && i + 1 < input.size() &&
           (input[i + 1] == '=' || input[i + 1] == '>')) ||
          (c == '>' && i + 1 < input.size() && input[i + 1] == '=')) {
        t.text = input.substr(i, 2);
        i += 2;
      } else if (std::string("(),.+-*/=<>").find(c) != std::string::npos) {
        t.text = std::string(1, c);
        ++i;
      } else {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "' at " + std::to_string(i));
      }
    }
    out.push_back(std::move(t));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.position = static_cast<int>(input.size());
  out.push_back(end);
  return out;
}

}  // namespace gsopt::sql
