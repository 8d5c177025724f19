#include "minic/lexer.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <string_view>

namespace vc::minic {
namespace {

const std::set<std::string, std::less<>>& keywords() {
  static const std::set<std::string, std::less<>> kw = {
      "global", "func", "local", "if", "else", "for", "while", "return",
      "void", "i32", "f64", "fabs", "fmin", "fmax", "__annot", "inf", "nan"};
  return kw;
}

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    for (;;) {
      skip_space_and_comments();
      if (at_end()) break;
      out.push_back(next_token());
    }
    Token end;
    end.kind = TokKind::End;
    end.loc = loc();
    out.push_back(end);
    return out;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  [[nodiscard]] SourceLoc loc() const { return SourceLoc{line_, column_}; }

  void skip_space_and_comments() {
    for (;;) {
      while (!at_end() && std::isspace(static_cast<unsigned char>(peek())))
        advance();
      if (peek() == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
        continue;
      }
      if (peek() == '/' && peek(1) == '*') {
        const SourceLoc start = loc();
        advance();
        advance();
        while (!(peek() == '*' && peek(1) == '/')) {
          if (at_end()) throw CompileError("unterminated block comment", start);
          advance();
        }
        advance();
        advance();
        continue;
      }
      return;
    }
  }

  Token next_token() {
    const SourceLoc start = loc();
    const char c = peek();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
      return ident_or_keyword(start);
    if (std::isdigit(static_cast<unsigned char>(c))) return number(start);
    if (c == '"') return string_lit(start);
    return punct(start);
  }

  /// The source text from `begin` up to the current position.
  [[nodiscard]] std::string_view since(std::size_t begin) const {
    return std::string_view(src_).substr(begin, pos_ - begin);
  }

  void skip_digits() {
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
  }

  Token ident_or_keyword(SourceLoc start) {
    const std::size_t begin = pos_;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      advance();
    Token t;
    t.text = since(begin);
    t.kind = keywords().count(t.text) != 0 ? TokKind::Keyword : TokKind::Ident;
    t.loc = start;
    return t;
  }

  Token number(SourceLoc start) {
    const std::size_t begin = pos_;
    bool is_float = false;
    skip_digits();
    if (peek() == '.') {
      is_float = true;
      advance();
      skip_digits();
    }
    if (peek() == 'e' || peek() == 'E') {
      is_float = true;
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        throw CompileError("malformed exponent", start);
      skip_digits();
    }
    Token t;
    t.loc = start;
    t.text = since(begin);
    if (is_float) {
      t.kind = TokKind::FloatLit;
      t.float_value = std::strtod(t.text.c_str(), nullptr);
    } else {
      t.kind = TokKind::IntLit;
      t.int_value = std::strtoll(t.text.c_str(), nullptr, 10);
      if (t.int_value > 2147483648LL)  // 2^31 allowed for `-2147483648`
        throw CompileError("integer literal out of i32 range", start);
    }
    return t;
  }

  Token string_lit(SourceLoc start) {
    advance();  // opening quote
    std::string text;
    while (peek() != '"') {
      if (at_end() || peek() == '\n')
        throw CompileError("unterminated string literal", start);
      if (peek() == '\\') {
        advance();
        const char esc = advance();
        switch (esc) {
          case 'n': text += '\n'; break;
          case 't': text += '\t'; break;
          case '"': text += '"'; break;
          case '\\': text += '\\'; break;
          default:
            throw CompileError("unknown escape sequence", start);
        }
      } else {
        text += advance();
      }
    }
    advance();  // closing quote
    Token t;
    t.kind = TokKind::StringLit;
    t.text = text;
    t.loc = start;
    return t;
  }

  Token punct(SourceLoc start) {
    static const char* two_char[] = {"==", "!=", "<=", ">=", "<<", ">>",
                                     "&&", "||"};
    Token t;
    t.kind = TokKind::Punct;
    t.loc = start;
    const std::size_t begin = pos_;
    for (const char* p : two_char) {
      if (peek() == p[0] && peek(1) == p[1]) {
        advance();
        advance();
        t.text = since(begin);
        return t;
      }
    }
    const char c = advance();
    if (c == '\0' || std::strchr("(){}[],;=<>+-*/%&|^~!?:", c) == nullptr)
      throw CompileError(std::string("unexpected character '") + c + "'", start);
    t.text = since(begin);
    return t;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

std::vector<Token> lex(const std::string& source) { return Lexer(source).run(); }

bool is_keyword(const std::string& word) {
  return keywords().count(word) != 0;
}

}  // namespace vc::minic
