//===- bounds/SymbolicExpr.cpp - Affine symbolic expressions ---------------===//

#include "bounds/SymbolicExpr.h"

#include <cassert>

using namespace chimera;
using namespace chimera::bounds;

AffineExpr AffineExpr::invalid() {
  AffineExpr E;
  E.Valid = false;
  return E;
}

AffineExpr AffineExpr::constant(int64_t Value) {
  AffineExpr E;
  E.Const = Value;
  return E;
}

AffineExpr AffineExpr::reg(ir::Reg R) {
  AffineExpr E;
  E.Coeffs[R] = 1;
  return E;
}

int64_t AffineExpr::coeff(ir::Reg R) const {
  auto It = Coeffs.find(R);
  return It == Coeffs.end() ? 0 : It->second;
}

void AffineExpr::normalize() {
  for (auto It = Coeffs.begin(); It != Coeffs.end();) {
    if (It->second == 0)
      It = Coeffs.erase(It);
    else
      ++It;
  }
}

AffineExpr AffineExpr::add(const AffineExpr &O) const {
  if (!Valid || !O.Valid)
    return invalid();
  AffineExpr E = *this;
  E.Const += O.Const;
  for (const auto &[R, C] : O.Coeffs)
    E.Coeffs[R] += C;
  E.normalize();
  return E;
}

AffineExpr AffineExpr::sub(const AffineExpr &O) const {
  return add(O.negate());
}

AffineExpr AffineExpr::negate() const {
  if (!Valid)
    return invalid();
  AffineExpr E = *this;
  E.Const = -E.Const;
  for (auto &[R, C] : E.Coeffs)
    C = -C;
  return E;
}

AffineExpr AffineExpr::mulConst(int64_t Factor) const {
  if (!Valid)
    return invalid();
  AffineExpr E = *this;
  E.Const *= Factor;
  for (auto &[R, C] : E.Coeffs)
    C *= Factor;
  E.normalize();
  return E;
}

AffineExpr AffineExpr::mul(const AffineExpr &O) const {
  if (!Valid || !O.Valid)
    return invalid();
  if (isConstant())
    return O.mulConst(Const);
  if (O.isConstant())
    return mulConst(O.Const);
  return invalid(); // Non-linear.
}

AffineExpr AffineExpr::addConst(int64_t Value) const {
  if (!Valid)
    return invalid();
  AffineExpr E = *this;
  E.Const += Value;
  return E;
}

AffineExpr AffineExpr::substitute(ir::Reg R,
                                  const AffineExpr &Replacement) const {
  if (!Valid || !Replacement.Valid)
    return invalid();
  int64_t C = coeff(R);
  if (C == 0)
    return *this;
  AffineExpr Without = *this;
  Without.Coeffs.erase(R);
  return Without.add(Replacement.mulConst(C));
}

int64_t AffineExpr::evaluate(const std::map<ir::Reg, int64_t> &Values) const {
  assert(Valid && "evaluating an invalid expression");
  int64_t Result = Const;
  for (const auto &[R, C] : Coeffs) {
    auto It = Values.find(R);
    assert(It != Values.end() && "missing register value");
    Result += C * It->second;
  }
  return Result;
}

std::string AffineExpr::str() const {
  if (!Valid)
    return "<invalid>";
  std::string Out = std::to_string(Const);
  for (const auto &[R, C] : Coeffs) {
    Out += C >= 0 ? " + " : " - ";
    int64_t Abs = C >= 0 ? C : -C;
    if (Abs != 1) {
      Out += std::to_string(Abs);
      Out += '*';
    }
    Out += 'r';
    Out += std::to_string(R);
  }
  return Out;
}
