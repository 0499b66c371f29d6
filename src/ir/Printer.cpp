//===- ir/Printer.cpp - Chimera IR textual dump ----------------------------===//

#include "ir/Printer.h"

using namespace chimera;
using namespace chimera::ir;

namespace {

std::string regName(Reg R) {
  if (R == NoReg)
    return "_";
  // Appending, not "r" + to_string(R): GCC 12 at -O3 warns
  // (-Wrestrict) on the inlined prepend.
  std::string Name = "r";
  Name += std::to_string(R);
  return Name;
}

} // namespace

std::string chimera::ir::printInstruction(const Module &M, const Function &F,
                                          const Instruction &Inst) {
  auto global = [&](uint32_t Id) {
    return Id < M.Globals.size() ? M.Globals[Id].Name : "<bad-global>";
  };
  auto sync = [&](uint32_t Id) {
    return Id < M.Syncs.size() ? M.Syncs[Id].Name : "<bad-sync>";
  };
  auto callee = [&](uint32_t Id) {
    return Id < M.Functions.size() ? M.function(Id).Name : "<bad-func>";
  };
  auto argList = [&](const std::vector<Reg> &Args) {
    std::string Out = "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += regName(Args[I]);
    }
    return Out + ")";
  };
  (void)F;

  switch (Inst.Op) {
  case Opcode::ConstInt:
    return regName(Inst.Dst) + " = const " + std::to_string(Inst.Imm);
  case Opcode::Move:
    return regName(Inst.Dst) + " = " + regName(Inst.A);
  case Opcode::Unary:
    return regName(Inst.Dst) + " = " +
           (Inst.UOp == UnOp::Neg ? "neg " : "not ") + regName(Inst.A);
  case Opcode::Binary:
    return regName(Inst.Dst) + " = " + binOpName(Inst.BOp) + " " +
           regName(Inst.A) + ", " + regName(Inst.B);
  case Opcode::AddrGlobal:
    return regName(Inst.Dst) + " = addrg @" + global(Inst.Id) +
           (Inst.A == NoReg ? "" : "[" + regName(Inst.A) + "]");
  case Opcode::PtrAdd:
    return regName(Inst.Dst) + " = ptradd " + regName(Inst.A) + ", " +
           regName(Inst.B);
  case Opcode::Load:
    return regName(Inst.Dst) + " = load [" + regName(Inst.A) + "]";
  case Opcode::Store:
    return "store [" + regName(Inst.A) + "], " + regName(Inst.B);
  case Opcode::Br:
    return "br bb" + std::to_string(Inst.Succ0);
  case Opcode::CondBr:
    return "condbr " + regName(Inst.A) + ", bb" + std::to_string(Inst.Succ0) +
           ", bb" + std::to_string(Inst.Succ1);
  case Opcode::Ret:
    return Inst.A == NoReg ? "ret" : "ret " + regName(Inst.A);
  case Opcode::Call:
    return (Inst.Dst == NoReg ? std::string() : regName(Inst.Dst) + " = ") +
           "call " + callee(Inst.Id) + argList(Inst.Args);
  case Opcode::Spawn:
    return regName(Inst.Dst) + " = spawn " + callee(Inst.Id) +
           argList(Inst.Args);
  case Opcode::Join:
    return "join " + regName(Inst.A);
  case Opcode::MutexLock:
    return "mutex_lock @" + sync(Inst.Id);
  case Opcode::MutexUnlock:
    return "mutex_unlock @" + sync(Inst.Id);
  case Opcode::BarrierWait:
    return "barrier_wait @" + sync(Inst.Id);
  case Opcode::CondWait:
    return "cond_wait @" + sync(Inst.Id) + ", @" + sync(Inst.Id2);
  case Opcode::CondSignal:
    return "cond_signal @" + sync(Inst.Id);
  case Opcode::CondBroadcast:
    return "cond_broadcast @" + sync(Inst.Id);
  case Opcode::Alloc:
    return regName(Inst.Dst) + " = alloc " + regName(Inst.A);
  case Opcode::Input:
    return regName(Inst.Dst) + " = input";
  case Opcode::NetRecv:
    return regName(Inst.Dst) + " = net_recv";
  case Opcode::FileRead:
    return regName(Inst.Dst) + " = file_read";
  case Opcode::Output:
    return "output " + regName(Inst.A);
  case Opcode::Yield:
    return "yield";
  case Opcode::WeakAcquire: {
    std::string Out = "weak_acquire wl" + std::to_string(Inst.Imm);
    if (Inst.A != NoReg)
      Out += " range [" + regName(Inst.A) + ", " + regName(Inst.B) + "]";
    return Out;
  }
  case Opcode::WeakRelease:
    return "weak_release wl" + std::to_string(Inst.Imm);
  }
  return "<?>";
}

std::string chimera::ir::printFunction(const Module &M, const Function &F) {
  std::string Out = (F.ReturnsVoid ? "void @" : "int @") + F.Name + "(";
  for (uint32_t I = 0; I != F.NumParams; ++I) {
    if (I)
      Out += ", ";
    Out += std::string(irTypeName(F.ParamTypes[I])) + " r" +
           std::to_string(I);
  }
  Out += ") {\n";
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    Out += "bb" + std::to_string(B) + ":\n";
    for (const Instruction &Inst : F.block(B).Insts)
      Out += "  " + printInstruction(M, F, Inst) + "\n";
  }
  Out += "}\n";
  return Out;
}

std::string chimera::ir::printModule(const Module &M) {
  std::string Out = "; module " + M.Name + "\n";
  for (const GlobalVar &G : M.Globals) {
    Out += "global @" + G.Name;
    if (G.SizeWords > 1) {
      Out += '[';
      Out += std::to_string(G.SizeWords);
      Out += ']';
    }
    if (G.Init)
      Out += " = " + std::to_string(G.Init);
    Out += "\n";
  }
  for (const SyncObject &S : M.Syncs) {
    switch (S.Kind) {
    case SyncKind::Mutex: Out += "mutex @" + S.Name + "\n"; break;
    case SyncKind::Barrier:
      Out += "barrier @" + S.Name + "(" + std::to_string(S.Parties) + ")\n";
      break;
    case SyncKind::Cond: Out += "cond @" + S.Name + "\n"; break;
    }
  }
  for (size_t I = 0; I != M.WeakLocks.size(); ++I) {
    const WeakLockMeta &WL = M.WeakLocks[I];
    Out += "; weak-lock wl" + std::to_string(I) + " " +
           weakLockGranularityName(WL.Granularity) + " " + WL.Name + "\n";
  }
  Out += "\n";
  for (const auto &F : M.Functions)
    Out += printFunction(M, *F) + "\n";
  return Out;
}
