//===- race/Summary.cpp - RELAY-style function summaries -------------------===//

#include "race/Summary.h"

#include "support/Hash.h"

using namespace chimera;
using namespace chimera::race;

uint64_t FunctionSummary::accessFingerprint() const {
  Hasher H;
  for (const AccessRecord &A : Accesses) {
    H.addWord((static_cast<uint64_t>(A.FuncId) << 32) | A.Ident);
    H.addWord(A.IsWrite);
    for (uint32_t Obj : A.Objects)
      H.addWord(Obj);
    H.addWord(0x0b57ac1e);
    for (uint32_t L : A.Held.ids())
      H.addWord(L);
    H.addWord(0xf00d);
  }
  return H.digest();
}
