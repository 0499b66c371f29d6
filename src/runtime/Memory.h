//===- runtime/Memory.h - Simulated word-addressed memory -------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine's memory: a global segment (laid out by the
/// Module) and a bump-allocated heap, both word-granular. Addresses are
/// plain uint64 word indices; 0 is never valid, so it serves as null.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RUNTIME_MEMORY_H
#define CHIMERA_RUNTIME_MEMORY_H

#include "ir/Module.h"
#include "support/Hash.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace chimera {
namespace rt {

class Memory {
public:
  /// Initializes segments from \p M (which must have laid-out globals).
  void init(const ir::Module &M, uint64_t HeapCapacityWords = 1u << 22);

  bool valid(uint64_t Addr) const { return access(Addr) != nullptr; }

  /// Maps \p Addr to its backing word, or null when the address is not
  /// in the global segment or the allocated heap. One classification
  /// serves both the bounds check and the access, and an invalid address
  /// is reported by the null return in every build type (never by a
  /// vanishing assert); the interpreter uses the same classification
  /// through View, so wild loads/stores become a deterministic
  /// Step::Fault.
  const uint64_t *access(uint64_t Addr) const {
    // Unsigned wrap makes the two range checks single comparisons.
    uint64_t GlobalOff = Addr - ir::Module::GlobalBase;
    if (GlobalOff < GlobalSeg.size())
      return &GlobalSeg[GlobalOff];
    uint64_t HeapOff = Addr - ir::Module::HeapBase;
    if (HeapOff < HeapUsed)
      return &HeapSeg[HeapOff];
    return nullptr;
  }
  uint64_t *access(uint64_t Addr) {
    return const_cast<uint64_t *>(
        static_cast<const Memory *>(this)->access(Addr));
  }

  /// A snapshot of the segment bounds for the interpreter's fast path.
  /// Stores the interpreter makes through raw uint64_t pointers may
  /// legally alias this object's members, so accessing memory via the
  /// member function forces the compiler to reload the bounds after every
  /// store; a View keeps them in registers. Both segments are allocated
  /// in full at init() (allocate() only bumps HeapUsed), so a View stays
  /// valid until the next allocate().
  struct View {
    uint64_t *GlobalData = nullptr;
    uint64_t GlobalSize = 0;
    uint64_t *HeapData = nullptr;
    uint64_t HeapUsed = 0;

    /// Same classification as Memory::access.
    uint64_t *access(uint64_t Addr) const {
      uint64_t GlobalOff = Addr - ir::Module::GlobalBase;
      if (GlobalOff < GlobalSize)
        return GlobalData + GlobalOff;
      uint64_t HeapOff = Addr - ir::Module::HeapBase;
      if (HeapOff < HeapUsed)
        return HeapData + HeapOff;
      return nullptr;
    }
  };

  View view() {
    return {GlobalSeg.data(), GlobalSeg.size(), HeapSeg.data(), HeapUsed};
  }

  /// Loads the word at \p Addr. \p Addr must be valid.
  uint64_t load(uint64_t Addr) const;

  /// Stores \p Value at \p Addr. \p Addr must be valid.
  void store(uint64_t Addr, uint64_t Value);

  /// Bump-allocates \p Words zeroed words; returns their base address or
  /// 0 when the heap is exhausted.
  uint64_t allocate(uint64_t Words);

  uint64_t heapUsedWords() const { return HeapUsed; }

  /// Segment contents, exposed for checkpointing. HeapSeg is sized to
  /// exactly HeapUsed words, so these are the complete live state.
  const std::vector<uint64_t> &globalWords() const { return GlobalSeg; }
  const std::vector<uint64_t> &heapWords() const { return HeapSeg; }

  /// Replaces the contents of both segments from a checkpoint. Must be
  /// called after init() with the same module: the global size must
  /// match and \p Used must fit the existing heap reservation. Assigning
  /// through the vectors preserves the full-capacity reservation, so
  /// Views stay valid across later allocate() calls as before.
  void restoreContents(const std::vector<uint64_t> &Global,
                       const std::vector<uint64_t> &Heap, uint64_t Used) {
    assert(Global.size() == GlobalSeg.size() && "global segment mismatch");
    assert(Heap.size() == Used && Used <= HeapCapacity && "bad heap restore");
    GlobalSeg = Global;
    HeapSeg = Heap;
    HeapUsed = Used;
  }

  /// Mixes the full memory state into \p H (global segment + live heap),
  /// used for record-vs-replay determinism comparison.
  void hashInto(Hasher &H) const;

private:
  std::vector<uint64_t> GlobalSeg;
  /// Sized to HeapUsed (grown by allocate) inside a fixed reservation of
  /// HeapCapacity words, so unused heap is never touched or zeroed.
  std::vector<uint64_t> HeapSeg;
  uint64_t HeapCapacity = 0;
  uint64_t HeapUsed = 0;
};

} // namespace rt
} // namespace chimera

#endif // CHIMERA_RUNTIME_MEMORY_H
