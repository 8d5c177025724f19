#include "minic/parser.hpp"

#include <limits>
#include <map>
#include <string_view>

#include "minic/lexer.hpp"

namespace vc::minic {
namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string name)
      : tokens_(std::move(tokens)), name_(std::move(name)) {}

  Program run() {
    Program program;
    program.name = name_;
    program_ = &program;
    while (!at(TokKind::End)) {
      if (at_keyword("global")) {
        parse_global(program);
      } else if (at_keyword("func")) {
        parse_function(program);
      } else {
        fail("expected 'global' or 'func'");
      }
    }
    return program;
  }

 private:
  // --- token helpers -------------------------------------------------------

  [[nodiscard]] const Token& cur() const { return tokens_[pos_]; }

  [[nodiscard]] bool at(TokKind k) const { return cur().kind == k; }

  [[nodiscard]] bool at_keyword(std::string_view kw) const {
    return cur().kind == TokKind::Keyword && cur().text == kw;
  }

  [[nodiscard]] bool at_punct(std::string_view p) const {
    return cur().kind == TokKind::Punct && cur().text == p;
  }

  const Token& take() { return tokens_[pos_++]; }

  void expect_punct(std::string_view p) {
    if (!at_punct(p)) fail("expected '" + std::string(p) + "'");
    take();
  }

  void expect_keyword(std::string_view kw) {
    if (!at_keyword(kw)) fail("expected '" + std::string(kw) + "'");
    take();
  }

  std::string expect_ident() {
    if (!at(TokKind::Ident)) fail("expected identifier");
    return take().text;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw CompileError(message + " (got '" + cur().text + "')", cur().loc);
  }

  Type parse_type() {
    if (at_keyword("i32")) {
      take();
      return Type::I32;
    }
    if (at_keyword("f64")) {
      take();
      return Type::F64;
    }
    fail("expected type 'i32' or 'f64'");
  }

  // --- declarations --------------------------------------------------------

  double parse_init_scalar(Type t) {
    bool negative = false;
    if (at_punct("-")) {
      take();
      negative = true;
    }
    double v = 0.0;
    if (at(TokKind::IntLit)) {
      v = static_cast<double>(take().int_value);
    } else if (at(TokKind::FloatLit)) {
      if (t == Type::I32) fail("float initializer for i32 global");
      v = take().float_value;
    } else if (at_keyword("inf")) {
      take();
      v = std::numeric_limits<double>::infinity();
    } else {
      fail("expected literal initializer");
    }
    return negative ? -v : v;
  }

  void parse_global(Program& program) {
    expect_keyword("global");
    Global g;
    g.type = parse_type();
    g.name = expect_ident();
    if (at_punct("[")) {
      take();
      if (!at(TokKind::IntLit)) fail("expected array size");
      g.count = static_cast<std::size_t>(take().int_value);
      expect_punct("]");
    }
    if (at_punct("=")) {
      take();
      if (at_punct("{")) {
        take();
        g.init.push_back(parse_init_scalar(g.type));
        while (at_punct(",")) {
          take();
          g.init.push_back(parse_init_scalar(g.type));
        }
        expect_punct("}");
      } else {
        g.init.push_back(parse_init_scalar(g.type));
      }
    }
    expect_punct(";");
    program.globals.push_back(std::move(g));
  }

  void parse_function(Program& program) {
    expect_keyword("func");
    Function fn;
    if (at_keyword("void")) {
      take();
      fn.has_return = false;
    } else {
      fn.has_return = true;
      fn.return_type = parse_type();
    }
    fn.name = expect_ident();
    expect_punct("(");
    if (!at_punct(")")) {
      for (;;) {
        Param p;
        p.type = parse_type();
        p.name = expect_ident();
        fn.params.push_back(p);
        if (!at_punct(",")) break;
        take();
      }
    }
    expect_punct(")");
    expect_punct("{");

    vars_.clear();
    for (const auto& p : fn.params) vars_[p.name] = p.type;
    while (at_keyword("local")) {
      take();
      Local l;
      l.type = parse_type();
      l.name = expect_ident();
      expect_punct(";");
      if (!vars_.emplace(l.name, l.type).second)
        fail("duplicate declaration of '" + l.name + "'");
      fn.locals.push_back(l);
    }
    while (!at_punct("}")) fn.body.push_back(parse_stmt());
    take();  // '}'
    program.functions.push_back(std::move(fn));
  }

  // --- statements ----------------------------------------------------------

  std::vector<StmtPtr> parse_block() {
    expect_punct("{");
    std::vector<StmtPtr> body;
    while (!at_punct("}")) body.push_back(parse_stmt());
    take();
    return body;
  }

  StmtPtr parse_stmt() {
    const SourceLoc loc = cur().loc;
    StmtPtr s;
    if (at_keyword("if")) {
      s = parse_if();
    } else if (at_keyword("for")) {
      s = parse_for();
    } else if (at_keyword("while")) {
      take();
      expect_punct("(");
      ExprPtr cond = parse_expr();
      expect_punct(")");
      s = while_stmt(std::move(cond), parse_block());
    } else if (at_keyword("return")) {
      take();
      ExprPtr value;
      if (!at_punct(";")) value = parse_expr();
      expect_punct(";");
      s = return_stmt(std::move(value));
    } else if (at_keyword("__annot")) {
      s = parse_annot();
    } else if (at(TokKind::Ident)) {
      s = parse_assign();
    } else {
      fail("expected statement");
    }
    s->loc = loc;
    return s;
  }

  StmtPtr parse_if() {
    expect_keyword("if");
    expect_punct("(");
    ExprPtr cond = parse_expr();
    if (cond->type != Type::I32) fail("if condition must be i32");
    expect_punct(")");
    std::vector<StmtPtr> then_body = parse_block();
    std::vector<StmtPtr> else_body;
    if (at_keyword("else")) {
      take();
      if (at_keyword("if")) {
        else_body.push_back(parse_if());
      } else {
        else_body = parse_block();
      }
    }
    return if_stmt(std::move(cond), std::move(then_body), std::move(else_body));
  }

  StmtPtr parse_for() {
    // Canonical form only: for (v = init; v < limit; v = v + 1) { ... }
    expect_keyword("for");
    expect_punct("(");
    const std::string var = expect_ident();
    expect_punct("=");
    ExprPtr init = parse_expr();
    expect_punct(";");
    if (expect_ident() != var) fail("loop condition must test the loop variable");
    expect_punct("<");
    ExprPtr limit = parse_expr();
    expect_punct(";");
    if (expect_ident() != var) fail("loop step must update the loop variable");
    expect_punct("=");
    if (expect_ident() != var) fail("loop step must be 'v = v + 1'");
    expect_punct("+");
    if (!at(TokKind::IntLit) || cur().int_value != 1)
      fail("loop step must be 'v = v + 1'");
    take();
    expect_punct(")");
    return for_stmt(var, std::move(init), std::move(limit), parse_block());
  }

  StmtPtr parse_annot() {
    expect_keyword("__annot");
    expect_punct("(");
    if (!at(TokKind::StringLit)) fail("expected annotation format string");
    const std::string format = take().text;
    std::vector<ExprPtr> args;
    while (at_punct(",")) {
      take();
      args.push_back(parse_expr());
    }
    expect_punct(")");
    expect_punct(";");
    return annot_stmt(format, std::move(args));
  }

  StmtPtr parse_assign() {
    const std::string name = expect_ident();
    ExprPtr index;
    if (at_punct("[")) {
      take();
      index = parse_expr();
      expect_punct("]");
    }
    expect_punct("=");
    ExprPtr value = parse_expr();
    expect_punct(";");
    if (vars_.count(name) != 0 && index == nullptr)
      return assign_local(name, std::move(value));
    if (index != nullptr)
      return assign_element(name, std::move(index), std::move(value));
    return assign_global(name, std::move(value));
  }

  // --- expressions (precedence climbing) -----------------------------------

  ExprPtr parse_expr() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_or();
    if (!at_punct("?")) return cond;
    take();
    ExprPtr if_true = parse_expr();
    expect_punct(":");
    ExprPtr if_false = parse_ternary();
    if (if_true->type != if_false->type) fail("ternary arms differ in type");
    return select(std::move(cond), std::move(if_true), std::move(if_false));
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at_punct("||")) {
      take();
      lhs = make_binary(BinOp::IOr, std::move(lhs), parse_and());
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_bitor();
    while (at_punct("&&")) {
      take();
      lhs = make_binary(BinOp::IAnd, std::move(lhs), parse_bitor());
    }
    return lhs;
  }

  ExprPtr parse_bitor() {
    ExprPtr lhs = parse_bitxor();
    while (at_punct("|")) {
      take();
      lhs = make_binary(BinOp::IOr, std::move(lhs), parse_bitxor());
    }
    return lhs;
  }

  ExprPtr parse_bitxor() {
    ExprPtr lhs = parse_bitand();
    while (at_punct("^")) {
      take();
      lhs = make_binary(BinOp::IXor, std::move(lhs), parse_bitand());
    }
    return lhs;
  }

  ExprPtr parse_bitand() {
    ExprPtr lhs = parse_equality();
    while (at_punct("&")) {
      take();
      lhs = make_binary(BinOp::IAnd, std::move(lhs), parse_equality());
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_relational();
    for (;;) {
      BinOp op;
      if (at_punct("==")) op = BinOp::ICmpEq;
      else if (at_punct("!=")) op = BinOp::ICmpNe;
      else return lhs;
      take();
      ExprPtr rhs = parse_relational();
      op = float_variant_if_needed(op, *lhs, *rhs);
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_shift();
    for (;;) {
      BinOp op;
      if (at_punct("<")) op = BinOp::ICmpLt;
      else if (at_punct("<=")) op = BinOp::ICmpLe;
      else if (at_punct(">")) op = BinOp::ICmpGt;
      else if (at_punct(">=")) op = BinOp::ICmpGe;
      else return lhs;
      take();
      ExprPtr rhs = parse_shift();
      op = float_variant_if_needed(op, *lhs, *rhs);
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_shift() {
    ExprPtr lhs = parse_additive();
    for (;;) {
      BinOp op;
      if (at_punct("<<")) op = BinOp::IShl;
      else if (at_punct(">>")) op = BinOp::IShr;
      else return lhs;
      take();
      lhs = make_binary(op, std::move(lhs), parse_additive());
    }
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    for (;;) {
      bool add;
      if (at_punct("+")) add = true;
      else if (at_punct("-")) add = false;
      else return lhs;
      take();
      ExprPtr rhs = parse_multiplicative();
      const bool is_float = lhs->type == Type::F64;
      const BinOp op = add ? (is_float ? BinOp::FAdd : BinOp::IAdd)
                           : (is_float ? BinOp::FSub : BinOp::ISub);
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      int which;
      if (at_punct("*")) which = 0;
      else if (at_punct("/")) which = 1;
      else if (at_punct("%")) which = 2;
      else return lhs;
      take();
      ExprPtr rhs = parse_unary();
      const bool is_float = lhs->type == Type::F64;
      BinOp op;
      if (which == 0) op = is_float ? BinOp::FMul : BinOp::IMul;
      else if (which == 1) op = is_float ? BinOp::FDiv : BinOp::IDiv;
      else op = BinOp::IRem;
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
  }

  ExprPtr parse_unary() {
    if (at_punct("-")) {
      take();
      ExprPtr operand = parse_unary();
      // Constant-fold negative literals for readability of printed code.
      if (operand->kind == ExprKind::IntLit)
        return int_lit(static_cast<std::int32_t>(
            0u - static_cast<std::uint32_t>(operand->int_value)));
      if (operand->kind == ExprKind::FloatLit)
        return float_lit(-operand->float_value);
      const UnOp op = operand->type == Type::F64 ? UnOp::FNeg : UnOp::INeg;
      return unary(op, std::move(operand));
    }
    if (at_punct("~")) {
      take();
      return unary(UnOp::INot, parse_unary());
    }
    if (at_punct("!")) {
      take();
      return unary(UnOp::LNot, parse_unary());
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    if (at(TokKind::IntLit))
      return int_lit(static_cast<std::int32_t>(take().int_value));
    if (at(TokKind::FloatLit)) return float_lit(take().float_value);
    if (at_keyword("inf")) {
      take();
      return float_lit(std::numeric_limits<double>::infinity());
    }
    if (at_keyword("nan")) {
      take();
      return float_lit(std::numeric_limits<double>::quiet_NaN());
    }
    if (at_keyword("fabs")) {
      take();
      expect_punct("(");
      ExprPtr a = parse_expr();
      expect_punct(")");
      return unary(UnOp::FAbs, std::move(a));
    }
    if (at_keyword("fmin") || at_keyword("fmax")) {
      const BinOp op = cur().text == "fmin" ? BinOp::FMin : BinOp::FMax;
      take();
      expect_punct("(");
      ExprPtr a = parse_expr();
      expect_punct(",");
      ExprPtr b = parse_expr();
      expect_punct(")");
      return make_binary(op, std::move(a), std::move(b));
    }
    if (at_punct("(")) {
      // Either a cast "(f64)(e)" / "(i32)(e)" or a parenthesized expression.
      if (tokens_[pos_ + 1].kind == TokKind::Keyword &&
          (tokens_[pos_ + 1].text == "f64" || tokens_[pos_ + 1].text == "i32")) {
        take();
        const bool to_float = take().text == "f64";
        expect_punct(")");
        expect_punct("(");
        ExprPtr a = parse_expr();
        expect_punct(")");
        return unary(to_float ? UnOp::I2F : UnOp::F2I, std::move(a));
      }
      take();
      ExprPtr e = parse_expr();
      expect_punct(")");
      return e;
    }
    if (at(TokKind::Ident)) {
      const std::string name = take().text;
      if (at_punct("[")) {
        take();
        ExprPtr idx = parse_expr();
        expect_punct("]");
        const Global* g = program_->find_global(name);
        if (g == nullptr) fail("unknown array '" + name + "'");
        return index_ref(name, std::move(idx), g->type);
      }
      auto it = vars_.find(name);
      if (it != vars_.end()) return local_ref(name, it->second);
      const Global* g = program_->find_global(name);
      if (g == nullptr) fail("unknown variable '" + name + "'");
      return global_ref(name, g->type);
    }
    fail("expected expression");
  }

  ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
    if (lhs->type != rhs->type) fail("operand types differ");
    if (lhs->type != operand_type(op))
      fail("operand type mismatch for operator " + to_string(op));
    return binary(op, std::move(lhs), std::move(rhs));
  }

  static BinOp float_variant_if_needed(BinOp op, const Expr& lhs,
                                       const Expr& rhs) {
    if (lhs.type != Type::F64 && rhs.type != Type::F64) return op;
    switch (op) {
      case BinOp::ICmpEq: return BinOp::FCmpEq;
      case BinOp::ICmpNe: return BinOp::FCmpNe;
      case BinOp::ICmpLt: return BinOp::FCmpLt;
      case BinOp::ICmpLe: return BinOp::FCmpLe;
      case BinOp::ICmpGt: return BinOp::FCmpGt;
      case BinOp::ICmpGe: return BinOp::FCmpGe;
      default: return op;
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::string name_;
  Program* program_ = nullptr;
  std::map<std::string, Type> vars_;
};

}  // namespace

Program parse_program(const std::string& source, const std::string& program_name) {
  return Parser(lex(source), program_name).run();
}

}  // namespace vc::minic
