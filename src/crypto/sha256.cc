#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/hex.h"
#include "crypto/sha256_internal.h"

namespace bftlab {

std::string Digest::ToHex() const { return bftlab::ToHex(AsSlice()); }

namespace sha256_internal {
namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// Compiled for these instructions alone, and called only when CPUID
// reports them; the rest of the build keeps the baseline x86-64 target.
#define BFTLAB_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

BFTLAB_SHA_NI inline __m128i LoadWords(const uint8_t* p) {
  // The message words are big-endian; swap the bytes of each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), kByteSwap);
}

/// W[t..t+3] for t >= 16 from the sixteen words before it:
/// a = W[t-16..t-13], b = W[t-12..], c = W[t-8..], d = W[t-4..t-1].
BFTLAB_SHA_NI inline __m128i Schedule(__m128i a, __m128i b, __m128i c,
                                      __m128i d) {
  const __m128i s0 = _mm_sha256msg1_epu32(a, b);  // W[t-16] + s0(W[t-15])
  const __m128i w7 = _mm_alignr_epi8(d, c, 4);    // W[t-7]
  return _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), d);  // + s1(W[t-2])
}

/// Rounds 4i..4i+3 on words w. SHA256RNDS2 runs two rounds and returns
/// the new ABEF; the old ABEF is then the new CDGH, so the two halves
/// swap roles between the calls and end where they started.
BFTLAB_SHA_NI inline void Rounds4(__m128i* abef, __m128i* cdgh, __m128i w,
                                  int i) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * i])));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

BFTLAB_SHA_NI void CompressShaNi(uint32_t state[8], const uint8_t* blocks,
                                 size_t num_blocks) {
  // state[] holds A..H in ascending lanes; SHA256RNDS2 wants the pairs
  // ABEF and CDGH, named here from the top lane down.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = LoadWords(blocks);
    __m128i w1 = LoadWords(blocks + 16);
    __m128i w2 = LoadWords(blocks + 32);
    __m128i w3 = LoadWords(blocks + 48);
    Rounds4(&abef, &cdgh, w0, 0);
    Rounds4(&abef, &cdgh, w1, 1);
    Rounds4(&abef, &cdgh, w2, 2);
    Rounds4(&abef, &cdgh, w3, 3);
    for (int i = 4; i < 16; i += 4) {
      w0 = Schedule(w0, w1, w2, w3);
      Rounds4(&abef, &cdgh, w0, i);
      w1 = Schedule(w1, w2, w3, w0);
      Rounds4(&abef, &cdgh, w1, i + 1);
      w2 = Schedule(w2, w3, w0, w1);
      Rounds4(&abef, &cdgh, w2, i + 2);
      w3 = Schedule(w3, w0, w1, w2);
      Rounds4(&abef, &cdgh, w3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef BFTLAB_SHA_NI

bool CpuHasShaNi() {
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}

#endif  // defined(__x86_64__)

}  // namespace

void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t num_blocks) {
  for (; num_blocks > 0; --num_blocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(blocks[4 * i]) << 24 |
             static_cast<uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn ShaNiCompressor() {
#if defined(__x86_64__)
  return CpuHasShaNi() ? CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

CompressFn ActiveCompressor() {
  static const CompressFn active = [] {
    CompressFn sha_ni = ShaNiCompressor();
    return sha_ni != nullptr ? sha_ni : CompressPortable;
  }();
  return active;
}

}  // namespace sha256_internal

using sha256_internal::ActiveCompressor;
using sha256_internal::CompressFn;

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::Update(Slice data) {
  bit_count_ += static_cast<uint64_t>(data.size()) * 8;
  const uint8_t* p = data.data();
  size_t n = data.size();
  const CompressFn compress = ActiveCompressor();

  if (pending_len_ > 0) {
    size_t take = 64 - pending_len_;
    if (take > n) take = n;
    std::memcpy(pending_ + pending_len_, p, take);
    pending_len_ += take;
    p += take;
    n -= take;
    if (pending_len_ == 64) {
      compress(state_, pending_, 1);
      pending_len_ = 0;
    }
  }
  if (n >= 64) {
    compress(state_, p, n / 64);
    p += n - n % 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(pending_, p, n);
    pending_len_ = n;
  }
}

Digest Sha256::Finalize() {
  // Append 0x80, zeros up to 56 (mod 64), then the 64-bit big-endian bit
  // length, straight into the pending block: one block when the message
  // tail leaves room for the 9 bytes, two otherwise.
  const CompressFn compress = ActiveCompressor();
  pending_[pending_len_++] = 0x80;
  if (pending_len_ > 56) {
    std::memset(pending_ + pending_len_, 0, 64 - pending_len_);
    compress(state_, pending_, 1);
    pending_len_ = 0;
  }
  std::memset(pending_ + pending_len_, 0, 56 - pending_len_);
  for (int i = 0; i < 8; ++i) {
    pending_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  compress(state_, pending_, 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out.data()[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out.data()[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out.data()[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out.data()[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(Slice data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Digest Sha256::Hash2(Slice a, Slice b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finalize();
}

const char* Sha256::CompressorName() {
  return ActiveCompressor() == sha256_internal::CompressPortable ? "portable"
                                                                 : "sha-ni";
}

}  // namespace bftlab
