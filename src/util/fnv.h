#pragma once

#include <cstddef>
#include <cstdint>

/// \file fnv.h
/// 64-bit FNV-1a, the structural hash behind ProbGraph::Fingerprint and
/// UcqFingerprint. Not cryptographic.

namespace phom {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

inline uint64_t FnvHashBytes(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over the value's eight bytes, least significant first.
inline uint64_t FnvHashU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace phom
