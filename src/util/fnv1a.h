// FNV-1a 64: the one hash behind checkpoint checksums (manifest and payload)
// and the epoch DeterminismHash. Folding a byte stream in pieces gives the same
// value as one pass over it, which the streaming checkpoint writer and verifier
// rely on.
#ifndef SRC_UTIL_FNV1A_H_
#define SRC_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace mariusgnn {

inline constexpr uint64_t kFnv64OffsetBasis = 14695981039346656037ULL;  // 0xCBF29CE484222325
inline constexpr uint64_t kFnv64Prime = 1099511628211ULL;               // 0x100000001B3

// Folds `len` bytes into the running hash *h.
inline void Fnv1a64Fold(uint64_t* h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t v = *h;
  for (size_t i = 0; i < len; ++i) {
    v ^= static_cast<uint64_t>(p[i]);
    v *= kFnv64Prime;
  }
  *h = v;
}

// Folds `count` zero bytes without materialising them.
inline void Fnv1a64FoldZeros(uint64_t* h, uint64_t count) {
  uint64_t v = *h;
  for (uint64_t i = 0; i < count; ++i) {
    v *= kFnv64Prime;  // v ^= 0 is a no-op
  }
  *h = v;
}

inline uint64_t Fnv1a64(const void* data, size_t len) {
  uint64_t h = kFnv64OffsetBasis;
  Fnv1a64Fold(&h, data, len);
  return h;
}

}  // namespace mariusgnn

#endif  // SRC_UTIL_FNV1A_H_
