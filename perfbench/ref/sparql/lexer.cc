#include "sparql/lexer.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace lbr {

namespace {

bool IsKeywordWord(const std::string& upper) {
  static const char* kKeywords[] = {"SELECT", "WHERE",  "OPTIONAL", "UNION",
                                    "FILTER", "PREFIX", "BOUND",    "A"};
  return std::find_if(std::begin(kKeywords), std::end(kKeywords),
                      [&upper](const char* kw) { return upper == kw; }) !=
         std::end(kKeywords);
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

[[noreturn]] void Fail(size_t line, size_t col, const std::string& msg) {
  throw std::invalid_argument("SPARQL lex error at " + std::to_string(line) +
                              ":" + std::to_string(col) + ": " + msg);
}

}  // namespace

bool Token::IsKeyword(std::string_view kw) const {
  return kind == TokenKind::kKeyword && value == kw;
}

std::vector<Token> Lexer::Tokenize(std::string_view text) {
  std::vector<Token> out;
  size_t i = 0, line = 1, col = 1;

  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (i < text.size() && text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto push = [&](TokenKind kind, std::string value, size_t tl, size_t tc) {
    Token t;
    t.kind = kind;
    t.value = std::move(value);
    t.line = tl;
    t.col = tc;
    out.push_back(std::move(t));
  };

  while (i < text.size()) {
    char c = text[i];
    size_t tl = line, tc = col;
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      advance(1);
      continue;
    }
    if (c == '#') {
      while (i < text.size() && text[i] != '\n') advance(1);
      continue;
    }
    if (c == '?' || c == '$') {
      size_t start = i + 1, end = start;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_')) {
        ++end;
      }
      if (end == start) Fail(tl, tc, "empty variable name");
      push(TokenKind::kVar, std::string(text.substr(start, end - start)), tl,
           tc);
      advance(end - i);
      continue;
    }
    if (c == '<') {
      // Disambiguate IRIREF from comparison '<': IRIs contain no whitespace
      // and must close with '>' before one.
      size_t end = i + 1;
      bool iri = true;
      while (end < text.size() && text[end] != '>') {
        if (std::isspace(static_cast<unsigned char>(text[end]))) {
          iri = false;
          break;
        }
        ++end;
      }
      if (end >= text.size()) iri = false;
      if (iri && end > i + 1) {
        push(TokenKind::kIriRef, std::string(text.substr(i + 1, end - i - 1)),
             tl, tc);
        advance(end - i + 1);
        continue;
      }
      if (i + 1 < text.size() && text[i + 1] == '=') {
        push(TokenKind::kOp, "<=", tl, tc);
        advance(2);
      } else {
        push(TokenKind::kOp, "<", tl, tc);
        advance(1);
      }
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      std::string value;
      size_t j = i + 1;
      while (j < text.size() && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < text.size()) {
          char esc = text[j + 1];
          switch (esc) {
            case 'n': value.push_back('\n'); break;
            case 't': value.push_back('\t'); break;
            case '"': value.push_back('"'); break;
            case '\'': value.push_back('\''); break;
            case '\\': value.push_back('\\'); break;
            default: value.push_back(esc); break;
          }
          j += 2;
        } else {
          value.push_back(text[j]);
          ++j;
        }
      }
      if (j >= text.size()) Fail(tl, tc, "unterminated string literal");
      ++j;  // closing quote
      // Fold @lang / ^^<datatype> into the lexical form, as NTriples does.
      if (j < text.size() && text[j] == '@') {
        size_t end = j;
        while (end < text.size() && IsNameChar(text[end] == '@' ? 'a' : text[end])) {
          if (text[end] != '@' && !IsNameChar(text[end])) break;
          ++end;
        }
        value += std::string(text.substr(j, end - j));
        j = end;
      } else if (j + 1 < text.size() && text[j] == '^' && text[j + 1] == '^') {
        size_t end = text.find('>', j);
        if (end == std::string_view::npos) {
          Fail(tl, tc, "unterminated datatype IRI");
        }
        value += std::string(text.substr(j, end - j + 1));
        j = end + 1;
      }
      push(TokenKind::kLiteral, std::move(value), tl, tc);
      advance(j - i);
      continue;
    }
    if (c == '_' && i + 1 < text.size() && text[i + 1] == ':') {
      size_t start = i + 2, end = start;
      while (end < text.size() && IsNameChar(text[end])) ++end;
      push(TokenKind::kBlank, std::string(text.substr(start, end - start)), tl,
           tc);
      advance(end - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      size_t end = i + (c == '-' ? 1 : 0);
      while (end < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[end])) ||
              text[end] == '.')) {
        ++end;
      }
      // A trailing '.' is the triple terminator, not part of the number.
      if (end > i && text[end - 1] == '.') --end;
      push(TokenKind::kNumber, std::string(text.substr(i, end - i)), tl, tc);
      advance(end - i);
      continue;
    }
    switch (c) {
      case '*': push(TokenKind::kStar, "*", tl, tc); advance(1); continue;
      case '{': push(TokenKind::kLbrace, "{", tl, tc); advance(1); continue;
      case '}': push(TokenKind::kRbrace, "}", tl, tc); advance(1); continue;
      case '(': push(TokenKind::kLparen, "(", tl, tc); advance(1); continue;
      case ')': push(TokenKind::kRparen, ")", tl, tc); advance(1); continue;
      case ',': push(TokenKind::kComma, ",", tl, tc); advance(1); continue;
      case ';': push(TokenKind::kSemicolon, ";", tl, tc); advance(1); continue;
      case '=': push(TokenKind::kOp, "=", tl, tc); advance(1); continue;
      case '!':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          push(TokenKind::kOp, "!=", tl, tc);
          advance(2);
        } else {
          push(TokenKind::kOp, "!", tl, tc);
          advance(1);
        }
        continue;
      case '>':
        if (i + 1 < text.size() && text[i + 1] == '=') {
          push(TokenKind::kOp, ">=", tl, tc);
          advance(2);
        } else {
          push(TokenKind::kOp, ">", tl, tc);
          advance(1);
        }
        continue;
      case '&':
        if (i + 1 < text.size() && text[i + 1] == '&') {
          push(TokenKind::kOp, "&&", tl, tc);
          advance(2);
          continue;
        }
        Fail(tl, tc, "stray '&'");
      case '|':
        if (i + 1 < text.size() && text[i + 1] == '|') {
          push(TokenKind::kOp, "||", tl, tc);
          advance(2);
          continue;
        }
        Fail(tl, tc, "stray '|'");
      default:
        break;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      // A bare word: keyword or prefixed name (prefix:local).
      size_t end = i;
      while (end < text.size() &&
             (IsNameChar(text[end]) || text[end] == ':')) {
        ++end;
      }
      // Strip a trailing '.', which terminates a triple.
      while (end > i && text[end - 1] == '.') --end;
      std::string word(text.substr(i, end - i));
      if (word.find(':') != std::string::npos) {
        push(TokenKind::kPname, word, tl, tc);
      } else {
        std::string upper = word;
        std::transform(upper.begin(), upper.end(), upper.begin(),
                       [](unsigned char ch) { return std::toupper(ch); });
        if (IsKeywordWord(upper)) {
          push(TokenKind::kKeyword, upper, tl, tc);
        } else {
          // Bare local name without prefix; treat as pname-ish token.
          push(TokenKind::kPname, word, tl, tc);
        }
      }
      advance(end - i);
      continue;
    }
    if (c == '.') {
      push(TokenKind::kDot, ".", tl, tc);
      advance(1);
      continue;
    }
    if (c == ':') {
      // Default-prefix name (":NewYorkCity").
      size_t end = i + 1;
      while (end < text.size() && IsNameChar(text[end])) ++end;
      while (end > i + 1 && text[end - 1] == '.') --end;
      push(TokenKind::kPname, std::string(text.substr(i, end - i)), tl, tc);
      advance(end - i);
      continue;
    }
    Fail(tl, tc, std::string("unexpected character '") + c + "'");
  }
  push(TokenKind::kEof, "", line, col);
  return out;
}

}  // namespace lbr
